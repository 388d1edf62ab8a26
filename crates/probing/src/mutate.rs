//! The mutation engine.
//!
//! Mutations operate on the source *text* (as the paper did — the authors
//! edited files, not ASTs), which is important: some mutations intentionally
//! produce code that no longer parses.
//!
//! Each mutation finds its target in the pristine text and writes the
//! result once: the untouched text is copied as byte slices around the
//! edited line or byte, with no per-line `String`s. Mutations that edit a
//! line render the file as `lines().join("\n") + "\n"` would (every line
//! ends in one `\n`, CRLF endings become LF), and every RNG draw happens
//! in the same order as in the line-vector engine this replaced, so the
//! corpus bytes are unchanged; the test module keeps that engine as the
//! reference.

use crate::IssueKind;
use rand::Rng;
use vv_corpus::{generate_non_directive_code, TestCase};
use vv_dclang::DirectiveModel;

/// The result of applying a mutation.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The issue class that was actually applied (always the requested one).
    pub issue: IssueKind,
    /// The mutated source text.
    pub source: String,
    /// What exactly was changed (for reports and debugging).
    pub note: String,
}

/// Apply a mutation of the requested class to a test case.
///
/// Every mutation is guaranteed to change the source text (for issue 5 /
/// `NoIssue` the original text is returned unchanged).
pub fn apply_mutation(case: &TestCase, issue: IssueKind, rng: &mut impl Rng) -> MutationOutcome {
    let source = &case.source;
    match issue {
        IssueKind::NoIssue => MutationOutcome {
            issue,
            source: source.clone(),
            note: "unchanged".to_string(),
        },
        IssueKind::RemovedAllocOrSwappedDirective => remove_alloc_or_swap_directive(case, rng),
        IssueKind::RemovedOpeningBracket => remove_opening_bracket(source, rng, issue),
        IssueKind::UndeclaredVariableUse => add_undeclared_variable(source, rng, issue),
        IssueKind::ReplacedWithNonDirectiveCode => MutationOutcome {
            issue,
            source: generate_non_directive_code(rng),
            note: "replaced entire file with random non-directive code".to_string(),
        },
        IssueKind::RemovedLastBracketedSection => remove_last_bracketed_section(source, issue),
    }
}

/// Issue 0: remove a memory allocation (keeping the declaration so the file
/// still compiles but crashes at runtime), or corrupt a directive keyword so
/// the compiler rejects the pragma. The choice mirrors the paper's combined
/// issue class.
fn remove_alloc_or_swap_directive(case: &TestCase, rng: &mut impl Rng) -> MutationOutcome {
    let source = &case.source;
    let has_malloc = source.contains("malloc(");
    let has_pragma = source.contains("#pragma ");
    let do_alloc = match (has_malloc, has_pragma) {
        (true, true) => rng.gen_bool(0.5),
        (true, false) => true,
        (false, _) => false,
    };
    if do_alloc {
        if let Some(result) = remove_allocation(source) {
            return MutationOutcome {
                issue: IssueKind::RemovedAllocOrSwappedDirective,
                source: result.0,
                note: result.1,
            };
        }
    }
    if let Some(result) = swap_directive(source, case.model, rng) {
        return MutationOutcome {
            issue: IssueKind::RemovedAllocOrSwappedDirective,
            source: result.0,
            note: result.1,
        };
    }
    // Fall back to removing an allocation even if the coin said otherwise.
    if let Some(result) = remove_allocation(source) {
        return MutationOutcome {
            issue: IssueKind::RemovedAllocOrSwappedDirective,
            source: result.0,
            note: result.1,
        };
    }
    // Last resort (a file with neither malloc nor pragma should not exist in
    // the corpus): corrupt the first line so the mutation is still visible.
    MutationOutcome {
        issue: IssueKind::RemovedAllocOrSwappedDirective,
        source: format!("{} bogus_directive\n{source}", pragma_prefix(case.model)),
        note: "prepended a bogus directive (no malloc or pragma found)".to_string(),
    }
}

fn pragma_prefix(model: DirectiveModel) -> &'static str {
    match model {
        DirectiveModel::OpenAcc => "#pragma acc",
        DirectiveModel::OpenMp => "#pragma omp",
    }
}

/// The lines of `source` as [`str::lines`] splits them, each with the
/// byte offset where the line starts and where the next one starts (past
/// its `\n`).
fn lines_at(source: &str) -> impl Iterator<Item = (usize, &str, usize)> {
    source.split_inclusive('\n').scan(0, |start, raw| {
        let at = *start;
        *start += raw.len();
        let line = match raw.strip_suffix('\n') {
            Some(line) => line.strip_suffix('\r').unwrap_or(line),
            None => raw,
        };
        Some((at, line, *start))
    })
}

/// Append whole lines of the pristine text as `lines().join("\n") + "\n"`
/// would render them: every line ends in exactly one `\n`. Without a
/// `\r` that is the slice itself, plus a final `\n` if it lacks one.
fn push_lines(out: &mut String, text: &str) {
    if text.contains('\r') {
        for line in text.lines() {
            out.push_str(line);
            out.push('\n');
        }
    } else {
        out.push_str(text);
        if !text.is_empty() && !text.ends_with('\n') {
            out.push('\n');
        }
    }
}

/// The pristine text with the line spanning `start..next` replaced by
/// `parts` (plus its `\n`), rendered as `lines().join("\n") + "\n"`.
fn splice_line(source: &str, start: usize, next: usize, parts: &[&str]) -> String {
    let mut out = String::with_capacity(source.len() + 64);
    push_lines(&mut out, &source[..start]);
    for part in parts {
        out.push_str(part);
    }
    out.push('\n');
    push_lines(&mut out, &source[next..]);
    out
}

/// Strip the `= (T *)malloc(...)` initializer from the first allocating
/// declaration, leaving an uninitialized pointer.
fn remove_allocation(source: &str) -> Option<(String, String)> {
    for (start, line, next) in lines_at(source) {
        if let Some(eq_pos) = line.find("= (") {
            if line.contains("malloc(") && line.trim_end().ends_with(';') {
                let kept = line[..eq_pos].trim_end();
                let note = format!("removed allocation: '{}'", line.trim());
                return Some((splice_line(source, start, next, &[kept, ";"]), note));
            }
        }
    }
    None
}

/// Corrupt one directive keyword on a randomly chosen pragma line.
fn swap_directive(
    source: &str,
    model: DirectiveModel,
    rng: &mut impl Rng,
) -> Option<(String, String)> {
    let sentinel = pragma_prefix(model);
    let is_pragma = |line: &str| line.trim_start().starts_with(sentinel);
    let pragmas = lines_at(source).filter(|(_, l, _)| is_pragma(l)).count();
    if pragmas == 0 {
        return None;
    }
    let pick = rng.gen_range(0..pragmas);
    let (target, (start, line, next)) = lines_at(source)
        .enumerate()
        .filter(|(_, (_, l, _))| is_pragma(l))
        .nth(pick)
        .expect("the pick is below the pragma count");
    // Words after "#pragma <sentinel>"; corrupt the first directive word.
    let prefix_len = line.find(sentinel).unwrap_or(0) + sentinel.len();
    let rest = &line[prefix_len..];
    let word = rest.split_whitespace().next()?;
    let word_start = prefix_len + (rest.len() - rest.trim_start().len());
    let corrupted_word = corrupt_word(word, rng);
    let mutated = splice_line(
        source,
        start,
        next,
        &[
            &line[..word_start],
            &corrupted_word,
            &line[word_start + word.len()..],
        ],
    );
    let note = format!(
        "swapped directive keyword '{}' for '{}' on line {}: '{}'",
        word,
        corrupted_word,
        target + 1,
        line.trim()
    );
    Some((mutated, note))
}

/// Produce a syntactically invalid variant of a directive keyword.
fn corrupt_word(word: &str, rng: &mut impl Rng) -> String {
    match rng.gen_range(0..3) {
        // drop a letter ("parallel" -> "paralel")
        0 if word.len() > 2 => {
            let drop = rng.gen_range(1..word.len() - 1);
            word.chars()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, c)| c)
                .collect()
        }
        // duplicate the final letter ("target" -> "targett")
        1 => format!("{}{}", word, word.chars().last().unwrap_or('x')),
        // join with an underscore suffix ("kernels" -> "kernels_region")
        _ => format!("{word}_region"),
    }
}

/// Issue 1: delete one `{` chosen at random.
fn remove_opening_bracket(source: &str, rng: &mut impl Rng, issue: IssueKind) -> MutationOutcome {
    let brackets = source.bytes().filter(|&b| b == b'{').count();
    if brackets == 0 {
        return MutationOutcome {
            issue,
            source: format!("}}\n{source}"),
            note: "no opening bracket found; prepended a stray closing bracket".to_string(),
        };
    }
    let pick = rng.gen_range(0..brackets);
    let (pos, _) = source
        .match_indices('{')
        .nth(pick)
        .expect("the pick is below the bracket count");
    let line = source[..pos].bytes().filter(|&b| b == b'\n').count() + 1;
    let mut mutated = String::with_capacity(source.len());
    mutated.push_str(&source[..pos]);
    mutated.push_str(&source[pos + 1..]);
    MutationOutcome {
        issue,
        source: mutated,
        note: format!("removed the opening bracket on line {line}"),
    }
}

/// Issue 2: insert a statement that uses a variable that is never declared.
fn add_undeclared_variable(source: &str, rng: &mut impl Rng, issue: IssueKind) -> MutationOutcome {
    let phantom = [
        "phantom_value",
        "missing_buffer",
        "ghost_index",
        "stray_total",
    ][rng.gen_range(0..4)];
    // Insert just before the final `return` in the file, which is inside
    // `main` for every corpus template, so the statement is reachable; a
    // file without one gets it before its last line.
    let mut last = None;
    let mut last_return = None;
    for (index, (start, line, _)) in lines_at(source).enumerate() {
        if line.trim_start().starts_with("return ") {
            last_return = Some((index, start));
        }
        last = Some((index, start));
    }
    let (insert_at, start) = last_return.or(last).unwrap_or((0, 0));
    let mut mutated = String::with_capacity(source.len() + 64);
    push_lines(&mut mutated, &source[..start]);
    for part in ["    ", phantom, " = ", phantom, " + 1;\n"] {
        mutated.push_str(part);
    }
    push_lines(&mut mutated, &source[start..]);
    MutationOutcome {
        issue,
        source: mutated,
        note: format!(
            "inserted use of undeclared variable '{phantom}' before line {}",
            insert_at + 1
        ),
    }
}

/// Issue 4: remove the last `{ ... }` region of the file (often the final
/// verification/failure block, so the file frequently still compiles and
/// runs — only the judge can notice the test no longer verifies anything).
fn remove_last_bracketed_section(source: &str, issue: IssueKind) -> MutationOutcome {
    let Some(open) = source.rfind('{') else {
        return MutationOutcome {
            issue,
            source: format!("// truncated\n{}", &source[..source.len() / 2]),
            note: "no bracketed section found; truncated file".to_string(),
        };
    };
    // Find the matching close bracket after `open`.
    let bytes = source.as_bytes();
    let mut depth = 0usize;
    let mut close = None;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'{' {
            depth += 1;
        } else if b == b'}' {
            depth -= 1;
            if depth == 0 {
                close = Some(i);
                break;
            }
        }
    }
    let line = source[..open].matches('\n').count() + 1;
    let end = close.map(|c| c + 1).unwrap_or(source.len());
    let mut mutated = String::with_capacity(source.len());
    mutated.push_str(&source[..open]);
    mutated.push_str(&source[end..]);
    MutationOutcome {
        issue,
        source: mutated,
        note: format!("removed the bracketed section starting on line {line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use vv_corpus::{CaseSource, TemplateSource};
    use vv_simcompiler::compiler_for;

    /// The line-vector mutations this engine replaced, kept verbatim as
    /// the reference the slice-editing ones must reproduce byte for byte.
    mod legacy {
        use super::super::{corrupt_word, IssueKind, MutationOutcome};
        use rand::Rng;
        use vv_dclang::DirectiveModel;

        fn model_sentinel(model: DirectiveModel) -> &'static str {
            match model {
                DirectiveModel::OpenAcc => "acc",
                DirectiveModel::OpenMp => "omp",
            }
        }

        /// Strip the `= (T *)malloc(...)` initializer from the first allocating
        /// declaration, leaving an uninitialized pointer.
        pub fn remove_allocation(source: &str) -> Option<(String, String)> {
            let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
            for line in lines.iter_mut() {
                if let Some(eq_pos) = line.find("= (") {
                    if line.contains("malloc(") && line.trim_end().ends_with(';') {
                        let kept = line[..eq_pos].trim_end().to_string();
                        let note = format!("removed allocation: '{}'", line.trim());
                        *line = format!("{kept};");
                        return Some((lines.join("\n") + "\n", note));
                    }
                }
            }
            None
        }

        /// Corrupt one directive keyword on a randomly chosen pragma line.
        pub fn swap_directive(
            source: &str,
            model: DirectiveModel,
            rng: &mut impl Rng,
        ) -> Option<(String, String)> {
            let sentinel = format!("#pragma {}", model_sentinel(model));
            let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
            let pragma_indices: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.trim_start().starts_with(&sentinel))
                .map(|(i, _)| i)
                .collect();
            if pragma_indices.is_empty() {
                return None;
            }
            let target = pragma_indices[rng.gen_range(0..pragma_indices.len())];
            let original = lines[target].clone();
            // Words after "#pragma <sentinel>"; corrupt the first directive word.
            let prefix_len = lines[target].find(&sentinel).unwrap_or(0) + sentinel.len();
            let rest = lines[target][prefix_len..].to_string();
            let word = rest.split_whitespace().next().map(str::to_string)?;
            let corrupted_word = corrupt_word(&word, rng);
            let new_rest = rest.replacen(&word, &corrupted_word, 1);
            lines[target] = format!("{}{}", &lines[target][..prefix_len], new_rest);
            let note = format!(
                "swapped directive keyword '{}' for '{}' on line {}: '{}'",
                word,
                corrupted_word,
                target + 1,
                original.trim()
            );
            Some((lines.join("\n") + "\n", note))
        }

        /// Issue 1: delete one `{` chosen at random.
        pub fn remove_opening_bracket(
            source: &str,
            rng: &mut impl Rng,
            issue: IssueKind,
        ) -> MutationOutcome {
            let positions: Vec<usize> = source
                .char_indices()
                .filter(|(_, c)| *c == '{')
                .map(|(i, _)| i)
                .collect();
            if positions.is_empty() {
                return MutationOutcome {
                    issue,
                    source: format!("}}\n{source}"),
                    note: "no opening bracket found; prepended a stray closing bracket".to_string(),
                };
            }
            let pos = positions[rng.gen_range(0..positions.len())];
            let line = source[..pos].matches('\n').count() + 1;
            let mut mutated = String::with_capacity(source.len());
            mutated.push_str(&source[..pos]);
            mutated.push_str(&source[pos + 1..]);
            MutationOutcome {
                issue,
                source: mutated,
                note: format!("removed the opening bracket on line {line}"),
            }
        }

        /// Issue 2: insert a statement that uses a variable that is never declared.
        pub fn add_undeclared_variable(
            source: &str,
            rng: &mut impl Rng,
            issue: IssueKind,
        ) -> MutationOutcome {
            let phantom = [
                "phantom_value",
                "missing_buffer",
                "ghost_index",
                "stray_total",
            ][rng.gen_range(0..4)];
            let statement = format!("    {phantom} = {phantom} + 1;");
            let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
            // Insert just before the final `return` in the file, which is inside
            // `main` for every corpus template, so the statement is reachable.
            let insert_at = lines
                .iter()
                .rposition(|l| l.trim_start().starts_with("return "))
                .unwrap_or(lines.len().saturating_sub(1));
            lines.insert(insert_at, statement);
            MutationOutcome {
                issue,
                source: lines.join("\n") + "\n",
                note: format!(
                    "inserted use of undeclared variable '{phantom}' before line {}",
                    insert_at + 1
                ),
            }
        }
    }

    fn sample_case(model: DirectiveModel, seed: u64) -> TestCase {
        TemplateSource::new(model, seed)
            .into_cases()
            .next()
            .expect("the template source is unbounded")
            .case
    }

    #[test]
    fn removed_bracket_no_longer_compiles() {
        let case = sample_case(DirectiveModel::OpenAcc, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mutated = apply_mutation(&case, IssueKind::RemovedOpeningBracket, &mut rng);
        let outcome = compiler_for(case.model).compile(&mutated.source, case.lang);
        assert!(
            !outcome.succeeded(),
            "expected compile failure:\n{}",
            mutated.source
        );
    }

    #[test]
    fn undeclared_variable_no_longer_compiles() {
        let case = sample_case(DirectiveModel::OpenMp, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mutated = apply_mutation(&case, IssueKind::UndeclaredVariableUse, &mut rng);
        let outcome = compiler_for(case.model).compile(&mutated.source, case.lang);
        assert!(!outcome.succeeded());
        assert!(outcome.stderr.contains("undeclared"));
    }

    #[test]
    fn swapped_directive_is_rejected_by_the_compiler() {
        let case = sample_case(DirectiveModel::OpenAcc, 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Force the directive-swap arm by using a stack-array template if the
        // drawn case has no malloc; either way the mutation must invalidate
        // the file (compile error or runtime fault).
        let mutated = apply_mutation(&case, IssueKind::RemovedAllocOrSwappedDirective, &mut rng);
        assert_ne!(mutated.source, case.source);
    }

    #[test]
    fn replaced_file_has_no_directives_and_compiles() {
        let case = sample_case(DirectiveModel::OpenAcc, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mutated = apply_mutation(&case, IssueKind::ReplacedWithNonDirectiveCode, &mut rng);
        assert!(!mutated.source.contains("#pragma"));
        let outcome = compiler_for(case.model).compile(&mutated.source, case.lang);
        assert!(outcome.succeeded(), "{}", outcome.stderr);
    }

    #[test]
    fn removed_last_section_often_still_compiles() {
        // Over a sample of templates, the "removed last bracketed section"
        // mutation should usually leave a compilable file (that is exactly
        // why the paper's pipeline struggles with this issue class).
        let total = 30usize;
        let mut still_compiles = 0usize;
        for generated in TemplateSource::new(DirectiveModel::OpenAcc, 99)
            .take(total)
            .into_cases()
        {
            let case = generated.case;
            let mutated =
                remove_last_bracketed_section(&case.source, IssueKind::RemovedLastBracketedSection);
            let outcome = compiler_for(case.model).compile(&mutated.source, case.lang);
            if outcome.succeeded() {
                still_compiles += 1;
            }
        }
        assert!(
            still_compiles * 2 > total,
            "only {still_compiles}/{total} truncated files still compile"
        );
    }

    #[test]
    fn remove_allocation_keeps_declaration() {
        let source = "int main() {\n    double *a = (double *)malloc(8 * sizeof(double));\n    a[0] = 1.0;\n    return 0;\n}\n";
        let (mutated, note) = remove_allocation(source).expect("allocation found");
        assert!(mutated.contains("double *a;"));
        assert!(!mutated.contains("malloc"));
        assert!(note.contains("removed allocation"));
    }

    #[test]
    fn corrupt_word_always_differs() {
        let mut rng = StdRng::seed_from_u64(10);
        for word in ["parallel", "kernels", "target", "teams", "data"] {
            for _ in 0..10 {
                assert_ne!(corrupt_word(word, &mut rng), word);
            }
        }
    }

    #[test]
    fn mutation_notes_are_descriptive() {
        let case = sample_case(DirectiveModel::OpenMp, 11);
        let mut rng = StdRng::seed_from_u64(12);
        for issue in IssueKind::MUTATIONS {
            let outcome = apply_mutation(&case, issue, &mut rng);
            assert!(!outcome.note.is_empty());
            assert_eq!(outcome.issue, issue);
        }
    }

    /// Run one mutation on a fresh RNG and report its result together with
    /// the RNG's next draw, so a change in how many draws it makes shows.
    fn traced<T>(seed: u64, mutation: impl FnOnce(&mut StdRng) -> T) -> (T, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = mutation(&mut rng);
        (out, rng.next_u64())
    }

    fn fields(outcome: MutationOutcome) -> (String, String) {
        (outcome.source, outcome.note)
    }

    /// Every slice-editing mutation against its line-vector reference, on
    /// one source under several RNG seeds: same text, same note, same
    /// number of draws.
    fn assert_matches_legacy(source: &str, model: DirectiveModel) {
        let removed = IssueKind::RemovedOpeningBracket;
        let undeclared = IssueKind::UndeclaredVariableUse;
        assert_eq!(
            remove_allocation(source),
            legacy::remove_allocation(source),
            "remove_allocation on {source:?}"
        );
        for seed in 0..6 {
            assert_eq!(
                traced(seed, |rng| swap_directive(source, model, rng)),
                traced(seed, |rng| legacy::swap_directive(source, model, rng)),
                "swap_directive (seed {seed}) on {source:?}"
            );
            assert_eq!(
                traced(seed, |rng| fields(remove_opening_bracket(
                    source, rng, removed
                ))),
                traced(seed, |rng| fields(legacy::remove_opening_bracket(
                    source, rng, removed
                ))),
                "remove_opening_bracket (seed {seed}) on {source:?}"
            );
            assert_eq!(
                traced(seed, |rng| fields(add_undeclared_variable(
                    source, rng, undeclared
                ))),
                traced(seed, |rng| fields(legacy::add_undeclared_variable(
                    source, rng, undeclared
                ))),
                "add_undeclared_variable (seed {seed}) on {source:?}"
            );
        }
    }

    #[test]
    fn slice_mutations_match_the_line_vector_reference_over_the_corpus() {
        for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
            for generated in TemplateSource::new(model, 41).take(300).into_cases() {
                let source = &generated.case.source;
                assert_matches_legacy(source, model);
                // The same file with Windows line endings.
                assert_matches_legacy(&source.replace('\n', "\r\n"), model);
            }
        }
    }

    #[test]
    fn slice_mutations_match_the_line_vector_reference_on_edge_inputs() {
        let case = sample_case(DirectiveModel::OpenAcc, 13).source;
        let edges = [
            String::new(),
            "\n".to_string(),
            "\r\n".to_string(),
            "\r".to_string(),
            "\n\n\n".to_string(),
            // No trailing newline.
            case.trim_end().to_string(),
            // CRLF, with and without a final line ending.
            case.replace('\n', "\r\n"),
            case.trim_end().replace('\n', "\r\n"),
            // A bare carriage return at the end and inside a line.
            format!("{}\r", case.trim_end()),
            case.replacen("int main", "int\rmain", 1),
            // No pragma, no `{`, no malloc.
            case.replace("#pragma", "// pragma"),
            case.replace('{', "("),
            case.replace("malloc(", "calloc("),
            "int main() { return 0; }".to_string(),
            "    return 1;".to_string(),
            "#pragma acc".to_string(),
            // A bare carriage return ends the last line, which is the target.
            "#pragma acc kernels\r".to_string(),
            "#pragma omp parallel for\r".to_string(),
            "  #pragma acc   \n#pragma omp parallel\r\n".to_string(),
            "double *p = (double *)malloc(8);\r\nreturn 0;".to_string(),
            "x = (int)malloc(1) ;  \r".to_string(),
            "{\n{\r\n{".to_string(),
            "é{ü\n#pragma acc ünïcode loop\n  return ö;\n".to_string(),
        ];
        for source in &edges {
            for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
                assert_matches_legacy(source, model);
            }
        }
    }
}
