//! `/proc` readers. Each returns `None` where `/proc` has no such file
//! (off Linux, or a process that already exited), and the metric built
//! on it is then absent from the report.

/// Kernel clock ticks per second behind `/proc/<pid>/stat` times. Linux
/// fixes the user-visible value at 100 on every architecture.
const CLK_TCK: f64 = 100.0;

/// User + system CPU time of a process, threads included, in ms.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / CLK_TCK)
}

fn status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of a process in KiB (`VmHWM`).
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kib(&status, "VmHWM:")
}

/// Current resident set of a process in KiB (`VmRSS`).
pub fn rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kib(&status, "VmRSS:")
}

/// Voluntary context switches summed over the live threads of a process.
pub fn voluntary_switches(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse::<u64>()
            .ok()?;
    }
    Some(total)
}

/// The processors this process may run on, as the kernel lists them
/// (`Cpus_allowed_list`, e.g. `1` or `0-1`); its children inherit them.
pub fn cpus_allowed() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// Sums a reader over several processes; absent if any is.
pub fn sum<T: std::iter::Sum<T>>(pids: &[u32], read: impl Fn(u32) -> Option<T>) -> Option<T> {
    pids.iter().map(|&pid| read(pid)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t     678 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(12345));
        assert_eq!(status_kib(status, "VmRSS:"), Some(678));
        assert_eq!(status_kib(status, "VmSwap:"), None);
    }

    #[test]
    fn a_missing_process_reads_as_absent() {
        assert_eq!(cpu_ms(u32::MAX), None);
        assert_eq!(peak_rss_kib(u32::MAX), None);
        assert_eq!(voluntary_switches(u32::MAX), None);
        assert_eq!(sum(&[u32::MAX], rss_kib), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_ms(me).is_some());
        assert!(peak_rss_kib(me).unwrap() >= rss_kib(me).unwrap() / 2);
        assert!(voluntary_switches(me).is_some());
        assert!(cpus_allowed()
            .unwrap()
            .starts_with(|c: char| c.is_ascii_digit()));
    }
}
