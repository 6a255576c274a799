//! Records provenance at build time: the compiler's version, the git
//! commit when the sources sit in a git checkout, and an FNV-1a-64
//! fingerprint of the sources the benchmark is built from (which
//! identifies the code where no git history exists).

use std::path::{Path, PathBuf};
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());

    // Ask git only when the parent directory is itself a repository, so
    // git never searches directories above it.
    let commit = Path::new("../.git")
        .exists()
        .then(|| output(Command::new("git").args(["-C", "..", "rev-parse", "HEAD"])))
        .flatten()
        .unwrap_or_else(|| "unknown".into());

    let mut paths = Vec::new();
    files(Path::new("../crates"), &mut paths);
    files(Path::new("src"), &mut paths);
    paths.push(PathBuf::from("Cargo.toml"));
    paths.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &paths {
        let bytes = std::fs::read(p).unwrap_or_default();
        for b in p.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV={h:016x}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=src");
    println!("cargo:rerun-if-changed=Cargo.toml");
    if Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
