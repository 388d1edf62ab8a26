//! Source-code emitters for each feature.
//!
//! Every emitter produces the canonical V&V test shape:
//!
//! ```text
//! header comment
//! #include ...            (C or C++ flavored)
//! #define N ...
//! int main() {
//!     allocate / initialize data
//!     <directive-based computation>
//!     verify against the expected result
//!     return 0 on success, nonzero on failure
//! }
//! ```
//!
//! Emitters draw sizes, scaling constants and naming schemes from the RNG so
//! that a large suite has realistic surface diversity, while every constant
//! is chosen so that floating-point results are exactly representable and
//! the verification comparison is exact (as the hand-written V&V tests do by
//! comparing against a serially computed reference).
//!
//! Each case is rendered into one `String`, sized up front for the longest
//! template: emitters append to it with `write!` and `push_str`, and the
//! fragments they share (includes, allocations, the closing report) are
//! writers or `&'static str`, never temporaries. Generation sits on the
//! executor's serial admission path, so its allocations are paid once per
//! case on every warm re-run.

use std::fmt::{self, Write};

use crate::features::{AccFeature, Feature, OmpFeature};
use rand::Rng;
use vv_simcompiler::Lang;

/// Tunable surface parameters for one generated test.
#[derive(Clone, Debug)]
pub struct Params {
    /// Problem size (`#define N ...`).
    pub n: usize,
    /// Integer scaling constant used in the computation.
    pub scale: i64,
    /// Additive constant (exactly representable).
    pub shift: i64,
    /// Array naming scheme `(input, output, scratch)`.
    pub names: (&'static str, &'static str, &'static str),
    /// Heap (`malloc`) vs stack arrays.
    pub heap: bool,
}

const NAME_SCHEMES: &[(&str, &str, &str)] = &[
    ("a", "b", "c"),
    ("x", "y", "z"),
    ("input_data", "output_data", "scratch"),
    ("src", "dst", "tmp"),
    ("data_in", "data_out", "work"),
];

impl Params {
    /// Draw parameters from the RNG.
    pub fn draw(rng: &mut impl Rng) -> Self {
        let sizes = [64usize, 128, 256, 512];
        Self {
            n: sizes[rng.gen_range(0..sizes.len())],
            scale: rng.gen_range(2..=5),
            shift: rng.gen_range(0..=3),
            names: NAME_SCHEMES[rng.gen_range(0..NAME_SCHEMES.len())],
            heap: rng.gen_bool(0.55),
        }
    }
}

/// Bytes reserved for one case. The longest template renders to 1,317
/// bytes (the longest name scheme with heap arrays), so no emitter grows
/// the buffer.
const CASE_CAPACITY: usize = 1536;

/// `write!` into the case buffer; formatting into a `String` cannot fail.
macro_rules! put {
    ($s:expr, $($fmt:tt)*) => {
        $s.write_fmt(format_args!($($fmt)*))
            .expect("formatting into a String cannot fail")
    };
}

/// Emit the source text for a feature.
pub fn emit(feature: Feature, lang: Lang, rng: &mut impl Rng) -> String {
    let params = Params::draw(rng);
    let mut s = String::with_capacity(CASE_CAPACITY);
    match feature {
        Feature::Acc(f) => emit_acc(&mut s, f, lang, &params, rng),
        Feature::Omp(f) => emit_omp(&mut s, f, lang, &params, rng),
    }
    s
}

// ---------------------------------------------------------------------------
// shared building blocks
// ---------------------------------------------------------------------------

fn header(s: &mut String, feature: Feature, lang: Lang) {
    let flavor = match lang {
        Lang::C => "C",
        Lang::Cpp => "C++",
    };
    put!(
        s,
        "// Functional test of the {}.\n\
         // Part of the synthetic validation and verification testsuite; the\n\
         // {} computation below is verified against a serial reference and\n\
         // the test exits with a nonzero code if any element mismatches.\n",
        feature.description(),
        flavor
    );
}

fn includes(lang: Lang) -> &'static str {
    match lang {
        Lang::C => "#include <stdio.h>\n#include <stdlib.h>\n",
        Lang::Cpp => "#include <cstdio>\n#include <cstdlib>\n",
    }
}

/// Header comment, includes and `#define N`: the opening of every
/// one-dimensional template.
fn preamble(s: &mut String, feature: Feature, lang: Lang, n: usize) {
    header(s, feature, lang);
    s.push_str(includes(lang));
    put!(s, "#define N {n}\n\n");
}

fn alloc_array(s: &mut String, name: &str, heap: bool) {
    if heap {
        put!(
            s,
            "    double *{name} = (double *)malloc(N * sizeof(double));\n"
        );
    } else {
        put!(s, "    double {name}[N];\n");
    }
}

fn free_array(s: &mut String, name: &str, heap: bool) {
    if heap {
        put!(s, "    free({name});\n");
    }
}

const REPORT_ERRORS: &str =
    "    if (err != 0) {\n        printf(\"Test failed with %d errors\\n\", err);\n        return 1;\n    }\n";

const PASSED: &str = "    printf(\"Test passed\\n\");\n    return 0;\n}\n";

/// The standard element-wise kernel test: `out[i] = in[i] * scale + shift`.
///
/// `pragma` is emitted immediately before the offloaded loop;
/// `region` optionally wraps the loop in a structured data region
/// (opening line, needs its own `{`/`}` emitted by this helper);
/// `pre` and `post` are standalone directives emitted before and after
/// the computation (for unstructured data movement). Every line is
/// borrowed `format_args!` output, written straight into the case buffer
/// by [`Elementwise::build`].
struct Elementwise<'a> {
    feature: Feature,
    lang: Lang,
    params: &'a Params,
    pragma: fmt::Arguments<'a>,
    region: Option<fmt::Arguments<'a>>,
    pre: Option<fmt::Arguments<'a>>,
    post: [Option<fmt::Arguments<'a>>; 2],
    decl: Option<fmt::Arguments<'a>>,
    body: Option<fmt::Arguments<'a>>,
}

impl<'a> Elementwise<'a> {
    fn new(feature: Feature, lang: Lang, params: &'a Params, pragma: fmt::Arguments<'a>) -> Self {
        Self {
            feature,
            lang,
            params,
            pragma,
            region: None,
            pre: None,
            post: [None, None],
            decl: None,
            body: None,
        }
    }

    fn region(mut self, line: fmt::Arguments<'a>) -> Self {
        self.region = Some(line);
        self
    }

    fn pre(mut self, line: fmt::Arguments<'a>) -> Self {
        self.pre = Some(line);
        self
    }

    fn post(mut self, first: fmt::Arguments<'a>, second: fmt::Arguments<'a>) -> Self {
        self.post = [Some(first), Some(second)];
        self
    }

    fn decl(mut self, line: fmt::Arguments<'a>) -> Self {
        self.decl = Some(line);
        self
    }

    fn body(mut self, body: fmt::Arguments<'a>) -> Self {
        self.body = Some(body);
        self
    }

    fn build(self, s: &mut String) {
        let p = self.params;
        let (a, b, _) = p.names;
        let scale = p.scale;
        let shift = p.shift;
        preamble(s, self.feature, self.lang, p.n);
        s.push_str("int main() {\n");
        alloc_array(s, a, p.heap);
        alloc_array(s, b, p.heap);
        if let Some(decl) = self.decl {
            put!(s, "    {decl}\n");
        }
        put!(
            s,
            "    for (int i = 0; i < N; i++) {{\n        {a}[i] = i * 0.5;\n        {b}[i] = 0.0;\n    }}\n"
        );
        if let Some(line) = self.pre {
            put!(s, "{line}\n");
        }
        let indent = if self.region.is_some() { "    " } else { "" };
        if let Some(region) = self.region {
            put!(s, "{region}\n    {{\n");
        }
        put!(s, "{}\n", self.pragma);
        put!(
            s,
            "{indent}    for (int i = 0; i < N; i++) {{\n{indent}        "
        );
        match self.body {
            Some(body) => put!(s, "{body}"),
            None => put!(s, "{b}[i] = {a}[i] * {scale}.0 + {shift}.0;"),
        }
        put!(s, "\n{indent}    }}\n");
        if self.region.is_some() {
            s.push_str("    }\n");
        }
        for line in self.post.into_iter().flatten() {
            put!(s, "{line}\n");
        }
        put!(
            s,
            "    int err = 0;\n    for (int i = 0; i < N; i++) {{\n        if ({b}[i] != {a}[i] * {scale}.0 + {shift}.0) {{\n            err = err + 1;\n        }}\n    }}\n"
        );
        free_array(s, a, p.heap);
        free_array(s, b, p.heap);
        s.push_str(REPORT_ERRORS);
        s.push_str(PASSED);
    }
}

/// A reduction-style test: a serial reference sum is compared against the
/// offloaded reduction.
fn reduction_test(
    s: &mut String,
    feature: Feature,
    lang: Lang,
    params: &Params,
    pragma: fmt::Arguments,
) {
    let (a, _, _) = params.names;
    preamble(s, feature, lang, params.n);
    s.push_str("int main() {\n");
    alloc_array(s, a, params.heap);
    put!(
        s,
        "    double expected = 0.0;\n    for (int i = 0; i < N; i++) {{\n        {a}[i] = i * 0.25;\n        expected = expected + {a}[i];\n    }}\n"
    );
    s.push_str("    double sum = 0.0;\n");
    put!(
        s,
        "{pragma}\n    for (int i = 0; i < N; i++) {{\n        sum += {a}[i];\n    }}\n"
    );
    free_array(s, a, params.heap);
    s.push_str(
        "    if (sum != expected) {\n        printf(\"Test failed: sum %f expected %f\\n\", sum, expected);\n        return 1;\n    }\n",
    );
    s.push_str(PASSED);
}

/// A counter test for atomic/critical constructs: every iteration increments
/// a shared counter; the final value must equal N.
fn counter_test(
    s: &mut String,
    feature: Feature,
    lang: Lang,
    params: &Params,
    outer: &str,
    inner: &str,
) {
    preamble(s, feature, lang, params.n);
    s.push_str("int main() {\n    int counter = 0;\n");
    put!(s, "{outer}\n    for (int i = 0; i < N; i++) {{\n{inner}\n");
    s.push_str("        counter += 1;\n    }\n");
    s.push_str(
        "    if (counter != N) {\n        printf(\"Test failed: counter %d\\n\", counter);\n        return 1;\n    }\n",
    );
    s.push_str(PASSED);
}

/// A 2-D test used for `collapse(2)` clauses.
fn collapse_test(
    s: &mut String,
    feature: Feature,
    lang: Lang,
    params: &Params,
    pragma: fmt::Arguments,
) {
    let (a, b, _) = params.names;
    let dim = 24usize;
    let scale = params.scale;
    header(s, feature, lang);
    s.push_str(includes(lang));
    put!(s, "#define M {dim}\n\n");
    s.push_str("int main() {\n");
    put!(
        s,
        "    double *{a} = (double *)malloc(M * M * sizeof(double));\n    double *{b} = (double *)malloc(M * M * sizeof(double));\n"
    );
    put!(
        s,
        "    for (int i = 0; i < M; i++) {{\n        for (int j = 0; j < M; j++) {{\n            {a}[i * M + j] = i * 1.0 + j * 0.5;\n            {b}[i * M + j] = 0.0;\n        }}\n    }}\n"
    );
    put!(s, "{pragma}\n");
    put!(
        s,
        "    for (int i = 0; i < M; i++) {{\n        for (int j = 0; j < M; j++) {{\n            {b}[i * M + j] = {a}[i * M + j] * {scale}.0;\n        }}\n    }}\n"
    );
    put!(
        s,
        "    int err = 0;\n    for (int i = 0; i < M; i++) {{\n        for (int j = 0; j < M; j++) {{\n            if ({b}[i * M + j] != {a}[i * M + j] * {scale}.0) {{\n                err = err + 1;\n            }}\n        }}\n    }}\n"
    );
    put!(s, "    free({a});\n    free({b});\n");
    s.push_str(REPORT_ERRORS);
    s.push_str(PASSED);
}

// ---------------------------------------------------------------------------
// OpenACC emitters
// ---------------------------------------------------------------------------

fn emit_acc(s: &mut String, feature: AccFeature, lang: Lang, p: &Params, rng: &mut impl Rng) {
    let f = Feature::Acc(feature);
    let (a, b, _) = p.names;
    let scale = p.scale;
    let shift = p.shift;
    match feature {
        AccFeature::ParallelLoop => Elementwise::new(
            f,
            lang,
            p,
            format_args!("#pragma acc parallel loop copyin({a}[0:N]) copyout({b}[0:N])"),
        )
        .build(s),
        AccFeature::ParallelLoopReduction => reduction_test(
            s,
            f,
            lang,
            p,
            format_args!("#pragma acc parallel loop reduction(+:sum) copyin({a}[0:N])"),
        ),
        AccFeature::KernelsLoop => Elementwise::new(
            f,
            lang,
            p,
            format_args!("#pragma acc kernels loop copyin({a}[0:N]) copyout({b}[0:N])"),
        )
        .build(s),
        AccFeature::SerialLoop => Elementwise::new(
            f,
            lang,
            p,
            format_args!("#pragma acc serial loop copyin({a}[0:N]) copyout({b}[0:N])"),
        )
        .build(s),
        AccFeature::DataRegion => {
            Elementwise::new(f, lang, p, format_args!("#pragma acc parallel loop"))
                .region(format_args!(
                    "#pragma acc data copyin({a}[0:N]) copyout({b}[0:N])"
                ))
                .build(s)
        }
        AccFeature::EnterExitData => Elementwise::new(
            f,
            lang,
            p,
            format_args!("#pragma acc parallel loop present({a}[0:N]) present({b}[0:N])"),
        )
        .pre(format_args!(
            "#pragma acc enter data copyin({a}[0:N]) create({b}[0:N])"
        ))
        .post(
            format_args!("#pragma acc update self({b}[0:N])"),
            format_args!("#pragma acc exit data delete({a}[0:N]) delete({b}[0:N])"),
        )
        .build(s),
        AccFeature::GangVector => Elementwise::new(
            f,
            lang,
            p,
            format_args!(
                "#pragma acc parallel loop gang vector copyin({a}[0:N]) copyout({b}[0:N])"
            ),
        )
        .build(s),
        AccFeature::Collapse => collapse_test(
            s,
            f,
            lang,
            p,
            format_args!(
                "#pragma acc parallel loop collapse(2) copyin({a}[0:M*M]) copyout({b}[0:M*M])"
            ),
        ),
        AccFeature::Private => Elementwise::new(
            f,
            lang,
            p,
            format_args!(
                "#pragma acc parallel loop private(workval) copyin({a}[0:N]) copyout({b}[0:N])"
            ),
        )
        .decl(format_args!("double workval = 0.0;"))
        .body(format_args!(
            "workval = {a}[i] * {scale}.0;\n        {b}[i] = workval + {shift}.0;"
        ))
        .build(s),
        AccFeature::FirstPrivate => Elementwise::new(
            f,
            lang,
            p,
            format_args!(
                "#pragma acc parallel loop firstprivate(factor) copyin({a}[0:N]) copyout({b}[0:N])"
            ),
        )
        .decl(format_args!("double factor = {scale}.0;"))
        .body(format_args!("{b}[i] = {a}[i] * factor + {shift}.0;"))
        .build(s),
        AccFeature::AtomicUpdate => counter_test(
            s,
            f,
            lang,
            p,
            "#pragma acc parallel loop copy(counter)",
            "#pragma acc atomic update",
        ),
        AccFeature::IfClause => Elementwise::new(
            f,
            lang,
            p,
            format_args!(
                "#pragma acc parallel loop if(use_device) copyin({a}[0:N]) copyout({b}[0:N])"
            ),
        )
        .decl(format_args!("int use_device = 1;"))
        .build(s),
        AccFeature::NumGangs => {
            let gangs = [4, 8, 16][rng.gen_range(0..3)];
            Elementwise::new(f, lang, p, format_args!(
                    "#pragma acc parallel loop num_gangs({gangs}) vector_length(64) copyin({a}[0:N]) copyout({b}[0:N])"
                ))
                .build(s)
        }
        AccFeature::RoutineSeq => {
            preamble(s, f, lang, p.n);
            s.push_str("#pragma acc routine seq\n");
            put!(
                s,
                "double transform(double value) {{\n    return value * {scale}.0 + {shift}.0;\n}}\n\n"
            );
            s.push_str("int main() {\n");
            alloc_array(s, a, p.heap);
            alloc_array(s, b, p.heap);
            put!(
                s,
                "    for (int i = 0; i < N; i++) {{\n        {a}[i] = i * 0.5;\n        {b}[i] = 0.0;\n    }}\n"
            );
            put!(
                s,
                "#pragma acc parallel loop copyin({a}[0:N]) copyout({b}[0:N])\n"
            );
            put!(
                s,
                "    for (int i = 0; i < N; i++) {{\n        {b}[i] = transform({a}[i]);\n    }}\n"
            );
            put!(
                s,
                "    int err = 0;\n    for (int i = 0; i < N; i++) {{\n        if ({b}[i] != {a}[i] * {scale}.0 + {shift}.0) {{\n            err = err + 1;\n        }}\n    }}\n"
            );
            free_array(s, a, p.heap);
            free_array(s, b, p.heap);
            s.push_str(REPORT_ERRORS);
            s.push_str(PASSED);
        }
        AccFeature::DataCopy => {
            Elementwise::new(f, lang, p, format_args!("#pragma acc parallel loop"))
                .region(format_args!(
                    "#pragma acc data copy({a}[0:N]) copy({b}[0:N])"
                ))
                .build(s)
        }
    }
}

// ---------------------------------------------------------------------------
// OpenMP emitters
// ---------------------------------------------------------------------------

fn emit_omp(s: &mut String, feature: OmpFeature, lang: Lang, p: &Params, rng: &mut impl Rng) {
    let f = Feature::Omp(feature);
    let (a, b, _) = p.names;
    let scale = p.scale;
    let shift = p.shift;
    match feature {
        OmpFeature::TargetParallelFor => Elementwise::new(f, lang, p, format_args!("#pragma omp parallel for"))
            .region(format_args!(
                "#pragma omp target map(to: {a}[0:N]) map(from: {b}[0:N])"
            ))
            .build(s),
        OmpFeature::TargetTeamsDistribute => Elementwise::new(f, lang, p, format_args!(
                "#pragma omp target teams distribute parallel for map(to: {a}[0:N]) map(from: {b}[0:N])"
            ))
            .build(s),
        OmpFeature::TargetTeamsReduction => reduction_test(
            s,
            f,
            lang,
            p,
            format_args!(
                "#pragma omp target teams distribute parallel for reduction(+:sum) map(to: {a}[0:N]) map(tofrom: sum)"
            ),
        ),
        OmpFeature::TargetDataRegion => Elementwise::new(f, lang, p, format_args!("#pragma omp target teams distribute parallel for"))
            .region(format_args!(
                "#pragma omp target data map(to: {a}[0:N]) map(from: {b}[0:N])"
            ))
            .build(s),
        OmpFeature::TargetEnterExitData => Elementwise::new(f, lang, p, format_args!("#pragma omp target teams distribute parallel for"))
            .pre(format_args!(
                "#pragma omp target enter data map(to: {a}[0:N]) map(alloc: {b}[0:N])"
            ))
            .post(
                format_args!("#pragma omp target update from({b}[0:N])"),
                format_args!(
                    "#pragma omp target exit data map(delete: {a}[0:N]) map(delete: {b}[0:N])"
                ),
            )
            .build(s),
        OmpFeature::ParallelFor => Elementwise::new(f, lang, p, format_args!("#pragma omp parallel for"))
            .build(s),
        OmpFeature::ParallelForReduction => reduction_test(
            s,
            f,
            lang,
            p,
            format_args!("#pragma omp parallel for reduction(+:sum)"),
        ),
        OmpFeature::ScheduleStatic => {
            let threads = [2, 4, 8][rng.gen_range(0..3)];
            Elementwise::new(f, lang, p, format_args!(
                    "#pragma omp parallel for schedule(static) num_threads({threads})"
                ))
                .build(s)
        }
        OmpFeature::Simd => Elementwise::new(f, lang, p, format_args!("#pragma omp simd"))
            .build(s),
        OmpFeature::MapTofrom => Elementwise::new(f, lang, p, format_args!(
                "#pragma omp target teams distribute parallel for map(to: {a}[0:N]) map(tofrom: {b}[0:N])"
            ))
            .build(s),
        OmpFeature::AtomicUpdate => counter_test(
            s,
            f,
            lang,
            p,
            "#pragma omp parallel for",
            "#pragma omp atomic update",
        ),
        OmpFeature::Critical => counter_test(
            s,
            f,
            lang,
            p,
            "#pragma omp parallel for",
            "#pragma omp critical",
        ),
        OmpFeature::Collapse => collapse_test(
            s,
            f,
            lang,
            p,
            format_args!(
                "#pragma omp target teams distribute parallel for collapse(2) map(to: {a}[0:M*M]) map(from: {b}[0:M*M])"
            ),
        ),
        OmpFeature::FirstPrivate => Elementwise::new(f, lang, p, format_args!("#pragma omp parallel for firstprivate(factor)"))
            .decl(format_args!("double factor = {scale}.0;"))
            .body(format_args!("{b}[i] = {a}[i] * factor + {shift}.0;"))
            .build(s),
        OmpFeature::Master => {
            preamble(s, f, lang, p.n);
            s.push_str("int main() {\n    int flag = 0;\n    int total = 0;\n");
            s.push_str("#pragma omp parallel\n    {\n");
            s.push_str("#pragma omp master\n        {\n            flag = 1;\n        }\n");
            s.push_str("    }\n");
            s.push_str("#pragma omp parallel for reduction(+:total)\n");
            s.push_str("    for (int i = 0; i < N; i++) {\n        total += 1;\n    }\n");
            s.push_str(
                "    if (flag != 1) {\n        printf(\"Test failed: master region not executed\\n\");\n        return 1;\n    }\n",
            );
            s.push_str(
                "    if (total != N) {\n        printf(\"Test failed: total %d\\n\", total);\n        return 1;\n    }\n",
            );
            s.push_str(PASSED);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vv_dclang::DirectiveModel;

    #[test]
    fn every_feature_emits_parsable_source() {
        let mut rng = StdRng::seed_from_u64(11);
        for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
            for feature in Feature::all_for(model) {
                for lang in [Lang::C, Lang::Cpp] {
                    let source = emit(feature, lang, &mut rng);
                    let parsed = vv_dclang::parse_source(&source);
                    assert!(
                        parsed.is_ok(),
                        "feature {} ({lang:?}) does not parse:\n{source}\n{:?}",
                        feature.name(),
                        parsed.err()
                    );
                }
            }
        }
    }

    #[test]
    fn emitted_sources_have_verification_logic() {
        let mut rng = StdRng::seed_from_u64(3);
        for feature in Feature::all_for(DirectiveModel::OpenAcc) {
            let source = emit(feature, Lang::C, &mut rng);
            assert!(source.contains("Test passed"), "{}", feature.name());
            assert!(source.contains("return 1;"), "{}", feature.name());
            assert!(source.contains("return 0;"), "{}", feature.name());
        }
    }

    #[test]
    fn no_template_outgrows_the_case_buffer() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            for model in [DirectiveModel::OpenAcc, DirectiveModel::OpenMp] {
                for feature in Feature::all_for(model) {
                    for lang in [Lang::C, Lang::Cpp] {
                        let source = emit(feature, lang, &mut rng);
                        assert!(source.len() <= CASE_CAPACITY, "{}", feature.name());
                    }
                }
            }
        }
    }

    #[test]
    fn params_draw_is_within_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = Params::draw(&mut rng);
            assert!(p.n >= 64 && p.n <= 512);
            assert!((2..=5).contains(&p.scale));
            assert!((0..=3).contains(&p.shift));
        }
    }
}
