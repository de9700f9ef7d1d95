//! Host-clock resource readings from `/proc` (Linux only, like the rest
//! of the benchmark's host side).

use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux architecture the
/// toolchain targets; reading it properly needs `sysconf`, which needs a
/// libc binding the offline build does not have.
const USER_HZ: f64 = 100.0;

/// A point on the host clock: wall instant plus the process's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    pub at: Instant,
    pub user_s: f64,
    pub sys_s: f64,
}

/// Wall and CPU seconds between two marks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostSpan {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl HostSpan {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// `self − other`, for phases measured by subtraction.
    pub fn minus(&self, other: &HostSpan) -> HostSpan {
        HostSpan {
            wall_s: self.wall_s - other.wall_s,
            user_s: self.user_s - other.user_s,
            sys_s: self.sys_s - other.sys_s,
        }
    }

    pub fn plus(&self, other: &HostSpan) -> HostSpan {
        HostSpan {
            wall_s: self.wall_s + other.wall_s,
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
        }
    }
}

impl HostMark {
    pub fn now() -> HostMark {
        let (user_s, sys_s) = cpu_seconds();
        HostMark {
            at: Instant::now(),
            user_s,
            sys_s,
        }
    }

    /// Time elapsed from `self` to `later`.
    pub fn until(&self, later: &HostMark) -> HostSpan {
        HostSpan {
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            user_s: later.user_s - self.user_s,
            sys_s: later.sys_s - self.sys_s,
        }
    }
}

/// (user, system) CPU seconds consumed by this process, all threads.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu(&stat).expect("utime/stime fields in /proc/self/stat")
}

/// `utime` and `stime` are fields 14 and 15; the command name (field 2)
/// may itself contain spaces and parentheses, so count from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Host cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_survives_hostile_command_names() {
        let stat = "1234 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 2 0 100";
        assert_eq!(parse_stat_cpu(stat), Some((2.5, 0.5)));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn vm_hwm_parse() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let a = HostMark::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let span = a.until(&HostMark::now());
        assert!(span.wall_s > 0.0);
        assert!(span.cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }
}
