//! `vv-store` — maintenance CLI for artifact store directories.
//!
//! ```text
//! vv-store fsck <dir>        verify manifest and segments
//! vv-store fsck <dir> --gc   same, then remove orphaned files
//! ```
//!
//! Exit status: 0 when the directory is clean (after GC, if requested),
//! 1 when damage remains, 2 on usage errors.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => return usage(),
    };
    if command != "fsck" {
        return usage();
    }
    let mut dir = None;
    let mut run_gc = false;
    for arg in rest {
        match arg.as_str() {
            "--gc" => run_gc = true,
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let Some(dir) = dir else {
        return usage();
    };

    if run_gc {
        match vv_store::gc(&dir) {
            Ok(removed) => {
                for path in &removed {
                    println!("removed {}", path.display());
                }
            }
            Err(err) => {
                eprintln!("vv-store: gc failed: {err}");
                return ExitCode::from(1);
            }
        }
    }
    match vv_store::check(&dir) {
        Ok(report) => {
            println!("{report}");
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("vv-store: fsck failed: {err}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: vv-store fsck <dir> [--gc]");
    ExitCode::from(2)
}
