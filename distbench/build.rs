//! Records `rustc -V` for the benchmark's self-describing records.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=DISTBENCH_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
