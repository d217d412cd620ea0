//! Process and host counters read from `/proc` (Linux only), and the
//! reference kernel that measures how fast the host runs at the moment.
//!
//! `/proc` reports CPU times in `USER_HZ` ticks, which is 100 per second on
//! every Linux architecture the workspace builds for.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const USER_HZ: f64 = 100.0;

/// Seconds a [`probe_s`] takes on the reference host: about the median
/// probe on the 2-vCPU VM the README's figures come from.  It only sets the
/// scale of the normalised timings.
pub const REFERENCE_PROBE_S: f64 = 0.015;

/// A host-speed probe: the fastest of three reference runs, so that an
/// interrupt or a burst of steal time that hits one run does not count.
pub fn probe_s() -> f64 {
    (0..3).map(|_| reference_run_s()).fold(f64::INFINITY, f64::min)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Runs the reference kernel once and returns its wall seconds.  The kernel is a fixed mix of the work the prover
/// does most: integer division, multi-limb products, ordered-map updates and
/// small allocations.  It uses no code of the repository, so no change to
/// the prover changes its speed; only the host's speed does.
fn reference_run_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(gcd(x >> 20 | 1, (acc ^ x) >> 30 | 1));
        map.insert(x % 50_000, i);
        if let Some(v) = map.get(&(acc % 50_000)) {
            acc ^= *v;
        }
        if i % 16 == 0 {
            let limbs: Vec<u64> = (0..8).map(|k| x.rotate_left(k * 7)).collect();
            let mut product = [0u64; 16];
            for (a, &la) in limbs.iter().enumerate() {
                let mut carry = 0u128;
                for (b, &lb) in limbs.iter().enumerate() {
                    let t = u128::from(la) * u128::from(lb) + u128::from(product[a + b]) + carry;
                    product[a + b] = t as u64;
                    carry = t >> 64;
                }
                product[a + 8] = carry as u64;
            }
            acc = acc.wrapping_add(product[7]);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// User plus system CPU time of this process, all threads included.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated, starting with field 3.
    let rest = &stat[stat.rfind(')').expect("/proc/self/stat has a ')'") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("/proc/self/stat tick field");
    // Fields 14 (utime) and 15 (stime) sit at offsets 11 and 12 after field 2.
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Time the hypervisor ran other guests while this host's CPUs wanted to
/// run, summed over all CPUs (`steal` of the `cpu` line of `/proc/stat`).
pub fn host_steal_s() -> f64 {
    let stat = read("/proc/stat");
    let line = stat.lines().next().expect("/proc/stat is empty");
    let steal = line.split_whitespace().nth(8).map_or(0, |v| v.parse::<u64>().unwrap_or(0));
    steal as f64 / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("/proc/self/status has VmHWM");
    kib as f64 / 1024.0
}
