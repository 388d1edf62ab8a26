//! Pins the paper's tables and figures: `repro quick` must print all 13
//! artifacts (Tables I–IX, Figures 3–6) byte for byte as recorded in
//! `golden/repro_quick.txt`, in the debug build as in the release build.
//!
//! A change that is meant to move a number regenerates the golden file
//! and says why in its description:
//!
//! ```text
//! cargo run --release -q -p vv-bench --bin repro -- quick > crates/bench/tests/golden/repro_quick.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/repro_quick.txt");

#[test]
fn repro_quick_prints_the_golden_tables() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("quick")
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("repro prints UTF-8");
    for (n, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "repro quick differs from golden/repro_quick.txt at line {}",
            n + 1
        );
    }
    assert_eq!(
        actual, GOLDEN,
        "repro quick and golden/repro_quick.txt differ in length"
    );
}
