//! Readers for the Linux `/proc` figures the benchmark reports: thread CPU
//! time (`schedstat`), process CPU time (`stat`) and peak resident set
//! size (`VmHWM`). Each reader is split into a parser over the file's text,
//! which the unit tests drive with fixture strings, and a thin wrapper that
//! reads the live file.

use std::fs;

/// Clock ticks per second of `/proc/self/stat`'s `utime` and `stime`
/// (`USER_HZ`, 100 on every Linux architecture the benchmark targets).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Parses `/proc/thread-self/schedstat`: `<on-cpu ns> <run-queue ns> <slices>`.
/// Returns the thread's CPU time in nanoseconds.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Parses `/proc/self/stat` and returns `utime + stime` in clock ticks.
///
/// The second field (the command name) is parenthesised and may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`: `utime` and `stime` are fields 14 and 15 of the line, i.e. the
/// 12th and 13th after the name.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Parses `/proc/self/status` and returns `VmHWM` (peak resident set
/// size) in bytes.
pub fn parse_vm_hwm(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value * 1024),
        _ => None,
    }
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    let ns = parse_schedstat(&read("/proc/thread-self/schedstat"))
        .expect("malformed /proc/thread-self/schedstat");
    ns as f64 * 1e-9
}

/// CPU time of the whole process (user + system, exited threads
/// included), in seconds, at clock-tick resolution.
pub fn process_cpu_s() -> f64 {
    let ticks = parse_stat_cpu_ticks(&read("/proc/self/stat")).expect("malformed /proc/self/stat");
    ticks as f64 / CLOCK_TICKS_PER_S
}

/// Peak resident set size of the process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    parse_vm_hwm(&read("/proc/self/status")).expect("no VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("356490986 813233 26\n"), Some(356_490_986));
        assert_eq!(parse_schedstat("0 0 1"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn stat_sums_utime_and_stime() {
        let line = "31138 (cat) R 31129 31138 31129 0 -1 4194304 83 0 0 0 34 7 0 0 20 0 1 0 \
                    220745 2703360 305 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(41));
    }

    #[test]
    fn stat_survives_spaces_and_parens_in_the_command_name() {
        let line = "77 (a b) (c)) S 1 77 77 0 -1 4194304 83 0 0 0 120 30 0 0 20 0 17 0 9 9 9";
        assert_eq!(parse_stat_cpu_ticks(line), Some(150));
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status =
            "Name:\tdistbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1568 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1568 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t 1500 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
    }
}
