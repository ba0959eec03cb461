//! What the benchmark knows about the machine it runs on: a fingerprint
//! recorded in every result, the peak-RSS reader, and two probes that are
//! independent of the program under test — a spin probe that tells whether
//! the host is really giving us two cores right now, and a STREAM-style
//! triad that bounds what a memory-bound sweep can reach.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Cores this process may run on (cgroup- and affinity-aware).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Extracts `VmHWM` (peak resident set, KiB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set so far, in KiB (0 where `/proc` is
/// unavailable — the caller reports it, so a zero is visible).
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(label, bytes)` for every cache of cpu0 that sysfs describes, e.g.
/// `("L2", 4194304)`; data and instruction L1 are told apart as
/// `L1d`/`L1i`.
pub fn cache_sizes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let Some(bytes) = parse_cache_size(&size) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{suffix}"), bytes));
    }
    out
}

/// Parses sysfs cache sizes such as `48K`, `4096K` or `260M`.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1u64 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// The last-level cache size in bytes (0 if sysfs says nothing).
pub fn llc_bytes() -> u64 {
    cache_sizes()
        .iter()
        .filter(|(label, _)| !label.ends_with('i'))
        .map(|(_, b)| *b)
        .max()
        .unwrap_or(0)
}

/// The host fingerprint recorded in every result. `run.sh` exports the
/// rustc version and git commit it saw at build time; outside `run.sh` the
/// tools are asked directly, and a checkout that is not a git repository
/// (the acceptance driver's) records `"unknown"`.
pub fn fingerprint(seed: u64, reps: usize) -> Json {
    let env_or = |key: &str, cmd: &str, args: &[&str]| {
        std::env::var(key)
            .ok()
            .filter(|v| !v.is_empty())
            .or_else(|| first_line_of(cmd, args))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let caches = cache_sizes()
        .into_iter()
        .fold(Json::obj(), |o, (label, bytes)| o.set(&label, bytes));
    Json::obj()
        .set("nproc", nproc())
        .set("cpu_model", cpu_model())
        .set("caches_bytes", caches)
        .set(
            "rustc",
            env_or("STANCE_BENCH_RUSTC", "rustc", &["--version"]),
        )
        .set(
            "git_commit",
            env_or("STANCE_BENCH_COMMIT", "git", &["rev-parse", "HEAD"]),
        )
        .set("seed", seed)
        .set("reps", reps)
}

/// Steps of the spin kernel per probe thread: ≈ 20 ms on a 2 GHz core, so
/// the one-thread and two-thread legs together take ≈ 50 ms.
const SPIN_STEPS: u64 = 1 << 24;
/// How long both threads spin while the guard waits for the second core.
/// A host that parks an idle vCPU hands it back only under sustained
/// two-thread demand (measured here: ≈ 0.8 s at half speed after a
/// single-threaded second), so the wait is a spin, not a sleep.
const WAIT: Duration = Duration::from_millis(500);
/// A two-thread spin slower than this multiple of the one-thread spin
/// means the host is not giving us two cores right now.
pub const SPIN_LIMIT: f64 = 1.3;
/// How often the guard waits and re-probes before the repetition runs
/// anyway (and is counted as disturbed).
pub const SPIN_RETRIES: usize = 2;

/// A dependent integer chain the optimizer cannot shorten or vectorize.
fn spin(steps: u64) -> Duration {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed()
}

/// Runs `f` on two threads at once; the slower thread's seconds.
fn on_two_threads(f: impl Fn() + Sync) -> f64 {
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        let run = || {
            gate.wait();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let other = s.spawn(run);
        let mine = run();
        mine.max(other.join().expect("spin thread panicked"))
    })
}

/// Host-availability probe: the same spin kernel timed on one thread, then
/// on two threads at once. Returns `slowest two-thread time / one-thread
/// time` — ≈ 1.0 when two cores are really available, ≈ 2.0 when the
/// threads share one. Uses nothing from the program under test.
pub fn spin_probe() -> f64 {
    let solo = spin(SPIN_STEPS).as_secs_f64();
    let pair = on_two_threads(|| {
        spin(SPIN_STEPS);
    });
    pair / solo
}

/// What the host-availability guard saw before a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Guard {
    /// The last probe's two-thread / one-thread ratio.
    pub ratio: f64,
    /// Waits taken before that probe (0 on a quiet host).
    pub retries: usize,
    /// Seconds the guard took in all (harness time, not set-up time).
    pub seconds: f64,
}

impl Guard {
    /// Whether the host still withheld a core after every retry. Such a
    /// repetition runs anyway and is counted — never dropped silently.
    pub fn disturbed(&self) -> bool {
        self.ratio > SPIN_LIMIT
    }
}

/// The host-availability guard: probe; while the ratio exceeds
/// [`SPIN_LIMIT`], wait (spinning on both threads — see [`WAIT`])
/// and probe again, at most [`SPIN_RETRIES`] times. It runs in the child,
/// after the single-threaded mesh build and immediately before the ranks
/// launch — the only place where "two cores now" says something about the
/// timed run.
pub fn guard() -> Guard {
    let t0 = Instant::now();
    let mut ratio = spin_probe();
    let mut retries = 0;
    while ratio > SPIN_LIMIT && retries < SPIN_RETRIES {
        on_two_threads(|| {
            let until = Instant::now() + WAIT;
            while Instant::now() < until {
                spin(1 << 20);
            }
        });
        ratio = spin_probe();
        retries += 1;
    }
    Guard {
        ratio,
        retries,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// STREAM-style triad `a[i] = b[i] + s·c[i]` over three arrays totalling
/// `total_bytes`, split across `threads` threads that stay up for the whole
/// measurement (a barrier separates the passes, so small arrays are not
/// dominated by thread start-up). Returns **computed** GB/s — 24 bytes per
/// element: two loads and one store; write-allocate traffic is not counted
/// — from the median pass of at least 5, run for about 40 ms.
pub fn triad_gbs(threads: usize, total_bytes: usize) -> f64 {
    let n = (total_bytes / 24).max(1024);
    let mut a = vec![0.0f64; n];
    let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let c: Vec<f64> = (0..n).map(|i| 1.0 - i as f64).collect();
    let chunk = n.div_ceil(threads);
    let gate = Barrier::new(threads);
    // Pass count from one untimed single-threaded pass, fixed before the
    // threads start so they all agree on it.
    let t0 = Instant::now();
    for (x, (bi, ci)) in a.iter_mut().zip(b.iter().zip(&c)) {
        *x = bi + 3.0 * ci;
    }
    let passes = (0.04 / t0.elapsed().as_secs_f64().max(1e-6)) as usize;
    let passes = passes.clamp(5, 400);
    let times = std::thread::scope(|s| {
        let handles: Vec<_> = a
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, a_part)| {
                let (b, c, gate) = (&b, &c, &gate);
                s.spawn(move || {
                    let lo = k * chunk;
                    let scale = std::hint::black_box(3.0);
                    let mut times = Vec::with_capacity(passes);
                    for _ in 0..passes {
                        gate.wait();
                        let t0 = Instant::now();
                        for (i, x) in a_part.iter_mut().enumerate() {
                            *x = b[lo + i] + scale * c[lo + i];
                        }
                        std::hint::black_box(&mut *a_part);
                        gate.wait();
                        times.push(t0.elapsed().as_secs_f64());
                    }
                    times
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("triad thread panicked"))
            .next()
            .expect("at least one thread")
    });
    (24 * n) as f64 / crate::stats::median(&times) / 1.0e9
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tstance-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  301234 kB\nVmSize:\t  299000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99999 kB\n";

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(123_456));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 10 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn own_peak_rss_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(vm_hwm_kb() > 0);
        }
    }

    #[test]
    fn cache_sizes_parse_sysfs_spellings() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn fingerprint_names_every_required_field() {
        let f = fingerprint(11, 5);
        for key in [
            "nproc",
            "cpu_model",
            "caches_bytes",
            "rustc",
            "git_commit",
            "seed",
            "reps",
        ] {
            assert!(f.get(key).is_some(), "fingerprint lacks {key}");
        }
        assert_eq!(f.num("seed"), Some(11.0));
        assert_eq!(f.num("reps"), Some(5.0));
    }

    #[test]
    fn probes_return_sane_numbers() {
        let ratio = spin_probe();
        assert!(ratio > 0.5 && ratio < 20.0, "spin ratio {ratio}");
        let gbs = triad_gbs(1, 1 << 20);
        assert!(gbs > 0.01, "triad {gbs} GB/s");
    }
}
