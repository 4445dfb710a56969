//! The benchmark's output: a human-readable table, a self-describing
//! record line and, last, the one-line result object.

use std::fmt::Write as _;
use std::fs;

/// The seed reserved for confirming a claimed gain after it was tuned on
/// other seeds. Never use it while developing a change.
pub const HOLDOUT_SEED: u64 = 9001;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// How `value` was computed from the samples.
    pub statistic: String,
    /// Listed in `BENCHMARK.json`, hence in the result line; otherwise it
    /// appears only in the table and the record.
    pub listed: bool,
}

impl Metric {
    /// A metric computed by `statistic`.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        statistic: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            statistic: statistic.into(),
            listed: true,
        }
    }

    /// A metric reported in the table and the record only.
    pub fn record_only(self) -> Self {
        Metric {
            listed: false,
            ..self
        }
    }
}

/// Where and how a result was taken.
#[derive(Debug, Clone)]
pub struct Context {
    /// Workload name.
    pub workload: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// Requested measuring time, seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Operations measured.
    pub reps: usize,
}

fn first_line(path: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "none" outside a git checkout.
pub fn git_rev() -> String {
    let Some(head) = first_line(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = first_line(&format!(".git/{reference}")) {
        return rev;
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.ends_with(&format!(" {reference}")))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// a non-finite value, which no metric should produce, becomes `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the table, the record line and the result line to stdout.
/// Returns whether the result is correct.
pub fn emit(
    ctx: &Context,
    metrics: &[Metric],
    attempted: usize,
    failed: usize,
    notes: &[String],
) -> bool {
    let mode = if ctx.trace { "traced" } else { "end-to-end" };
    println!(
        "{} ({mode}): seed {}, {} operations in ~{} s, {failed} failed",
        ctx.workload, ctx.seed, ctx.reps, ctx.seconds
    );
    for m in metrics {
        println!(
            "  {:<34} {:>18} {:<6} {}",
            m.name,
            json_num(m.value),
            m.unit,
            m.statistic
        );
    }
    for n in notes {
        println!("  note: {n}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut rec = String::from("{\"record\":{");
    let _ = write!(
        rec,
        "\"workload\":{},\"seed\":{},\"holdout_seed\":{HOLDOUT_SEED},\"seconds\":{},\"trace\":{},\"reps\":{},\
         \"attempted\":{attempted},\"failed\":{failed},\"host\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"metrics\":{{",
        json_str(ctx.workload),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        ctx.reps,
        json_str(&first_line("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into())),
        json_str(&cpu_model()),
        json_str(env!("DISTBENCH_RUSTC")),
        json_str(&git_rev()),
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            rec,
            "{}{}:{{\"value\":{},\"unit\":{},\"statistic\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit),
            json_str(&m.statistic)
        );
    }
    rec.push_str("}}}");
    println!("{rec}");

    let listed: Vec<&Metric> = metrics.iter().filter(|m| m.listed).collect();
    let correct = failed == 0 && listed.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in listed.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    println!("{out}");
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(1.2034567891234), "1.2034567891234");
        assert_eq!(json_num(25.0), "25");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
