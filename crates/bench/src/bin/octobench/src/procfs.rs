//! `/proc` readers: server CPU time, peak RSS, load average, and the
//! filesystem a path lives on. Parsing is split from reading so the
//! parsers are unit-tested on literal file contents.

use std::path::Path;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc,
/// which the hermetic build does not vendor; Linux has fixed USER_HZ at
/// 100 on every architecture this repository targets.
pub const CLK_TCK: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The comm field may contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // after comm: state(3) ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime(14) stime(15)
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (`VmHWM`, `VmRSS`) from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the entry with the longest mount point that
/// is a path-prefix of `path` wins.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <src> <opts>"
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fs_type))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
}

pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t as f64 / CLK_TCK)
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

pub fn loadavg_1m() -> Option<f64> {
    parse_loadavg(&std::fs::read_to_string("/proc/loadavg").ok()?)
}

/// Filesystem type under `path` (which must exist).
pub fn fs_type(path: &Path) -> Option<String> {
    let abs = path.canonicalize().ok()?;
    parse_fs_type(&std::fs::read_to_string("/proc/self/mountinfo").ok()?, &abs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_comm() {
        let plain =
            "4242 (octobench) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(300));
        let nasty = "7 (a b) c) d) R 1 7 7 0 -1 0 1 2 3 4 11 22 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_cpu_ticks(nasty), Some(33));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_in_kb() {
        let status =
            "Name:\toctobench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   4096 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4_096));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg("0.42 0.30 0.25 1/123 4567\n"), Some(0.42));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let info = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
30 22 0:26 / /tmp rw,nosuid - tmpfs tmpfs rw,size=1g\n\
31 22 0:27 / /tmp/real rw - xfs /dev/vdb rw\n\
40 22 0:30 / /dev/shm rw - tmpfs shm rw\n";
        assert_eq!(
            parse_fs_type(info, Path::new("/root/repo")).as_deref(),
            Some("ext4")
        );
        assert_eq!(
            parse_fs_type(info, Path::new("/tmp/x/y")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            parse_fs_type(info, Path::new("/tmp/real/d")).as_deref(),
            Some("xfs")
        );
        // `/tmpfoo` is not under the `/tmp` mount
        assert_eq!(
            parse_fs_type(info, Path::new("/tmpfoo")).as_deref(),
            Some("ext4")
        );
        assert_eq!(parse_fs_type("", Path::new("/")), None);
    }
}
