//! What the host says about this process: the numbers that tell noise
//! from regression. Linux procfs only; absent files read as zero.

/// Worker threads the machine offers: the count the repo's own sweeps
/// default to.
pub use lockss_experiments::runner::default_threads as nproc;

fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Times the scheduler took the CPU away from this process.
pub fn involuntary_ctx_switches() -> u64 {
    status_field("nonvoluntary_ctxt_switches:")
}

/// User + system CPU seconds of every thread of this process, from
/// `/proc/self/stat` at the kernel's usual 100 ticks per second.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from after
    // its closing parenthesis, where utime and stime are the 12th and 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(fields.next()) + ticks(fields.next())) as f64 / 100.0
}

/// Measures how fast this host is running right now, against a reference.
///
/// A run on a shared box sees its host speed shift by 10–30% for minutes
/// at a time (co-tenants, frequency), which no number of reps inside a
/// 20 s run averages out. The end-to-end timings are therefore divided by
/// a factor sampled right before and after each rep: the time of a fixed
/// piece of work — an ALU chain and a pointer chase over 4 MiB, half
/// compute-bound and half cache-miss-bound like the simulator — over its
/// time on the quiet 2.1 GHz box the workloads were sized on. The kernel
/// is the benchmark's own code, so parent and change are scaled alike.
pub struct SpeedProbe {
    chase: Vec<u32>,
    /// Divides the work of a sample: 1, or 10 under `--smoke`.
    shrink: u64,
}

const ALU_ITERS: u64 = 40_000_000;
const ALU_NOMINAL_S: f64 = 0.090;
const CHASE_SLOTS: usize = 1 << 20;
const CHASE_STEPS: u64 = 4_000_000;
const CHASE_NOMINAL_S: f64 = 0.164;

impl SpeedProbe {
    /// Builds the chase: one random cycle through every slot (Sattolo),
    /// so each step is a dependent load the prefetcher cannot guess.
    pub fn new(smoke: bool) -> SpeedProbe {
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut s = 12345u64;
        for i in (1..CHASE_SLOTS).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            chase.swap(i, (s >> 33) as usize % i);
        }
        SpeedProbe {
            chase,
            shrink: if smoke { 10 } else { 1 },
        }
    }

    /// One sample, ~0.25 s: above 1.0 the host is slower than the
    /// reference, so a time measured beside it is divided by the factor.
    pub fn sample(&self) -> f64 {
        let t = std::time::Instant::now();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..ALU_ITERS / self.shrink {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
        let alu_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS / self.shrink {
            p = self.chase[p as usize];
        }
        std::hint::black_box(p);
        let chase_s = t.elapsed().as_secs_f64();
        (alu_s / ALU_NOMINAL_S + chase_s / CHASE_NOMINAL_S) / 2.0 * self.shrink as f64
    }
}
