//! Experiment scale selection.
//!
//! The paper's configuration (100 peers × up to 600 AUs × 2 simulated
//! years × 3 seeds) is CPU-hours per figure; the `default` scale keeps the
//! paper's population, interval, quorum, and damage model but trims the
//! collection size and seed count so a full figure regenerates in minutes
//! while preserving the result's *shape*. `quick` is a smoke-test scale
//! for CI.

use lockss_sim::Duration;

/// How big to run an experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Smoke test: tiny population, one seed.
    Quick,
    /// Laptop-scale shape reproduction (the EXPERIMENTS.md numbers).
    Default,
    /// The paper's §6.3 parameters.
    Paper,
}

impl Scale {
    /// Reads the scale from `--scale <s>` argv or the `LOCKSS_SCALE`
    /// environment variable; defaults to `Default` when neither is given.
    /// A name [`Scale::parse`] rejects ends the process with exit code 2
    /// and the accepted names: a typo must not silently run the
    /// minutes-long default scale.
    pub fn from_env_and_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let named = match args.iter().position(|a| a == "--scale") {
            Some(i) => Some(("--scale", args.get(i + 1).cloned().unwrap_or_default())),
            None => std::env::var("LOCKSS_SCALE")
                .ok()
                .map(|v| ("LOCKSS_SCALE", v)),
        };
        match named {
            None => Scale::Default,
            Some((source, name)) => Scale::parse(&name).unwrap_or_else(|e| {
                eprintln!("{source}: {e}");
                std::process::exit(2);
            }),
        }
    }

    /// Parses a scale name, case-insensitively: `quick` (or `smoke`, `ci`),
    /// `default`, `paper` (or `full`). Anything else is an error naming
    /// the accepted spellings.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s.to_ascii_lowercase().as_str() {
            "quick" | "smoke" | "ci" => Ok(Scale::Quick),
            "default" => Ok(Scale::Default),
            "paper" | "full" => Ok(Scale::Paper),
            _ => Err(format!(
                "unknown scale '{s}' (expected quick|smoke|ci, default, or paper|full)"
            )),
        }
    }

    /// Loyal peer population.
    pub fn n_peers(self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Default | Scale::Paper => 100,
        }
    }

    /// The small collection size (the paper's 50-AU points).
    pub fn small_collection(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Default => 20,
            Scale::Paper => 50,
        }
    }

    /// The large collection size (the paper's 600-AU points; `paper` scale
    /// uses 200 — still 4× the small collection, direct-simulated rather
    /// than layered, see DESIGN.md).
    pub fn large_collection(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Default => 50,
            Scale::Paper => 200,
        }
    }

    /// Simulated run length.
    pub fn run_length(self) -> Duration {
        match self {
            Scale::Quick => Duration::from_days(360),
            Scale::Default | Scale::Paper => Duration::YEAR * 2,
        }
    }

    /// Seeds per data point (the paper: 3 runs per point).
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Default | Scale::Paper => 3,
        }
    }

    /// Attack-duration sweep for the pipe-stoppage figures (days).
    pub fn stoppage_durations(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![10, 90],
            _ => vec![1, 5, 10, 30, 60, 90, 180],
        }
    }

    /// Attack-duration sweep for the admission-flood figures (days).
    pub fn flood_durations(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![10, 180],
            _ => vec![1, 5, 10, 30, 90, 180, 720],
        }
    }

    /// Coverage sweep (fraction of the population attacked).
    pub fn coverages(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.4, 1.0],
            _ => vec![0.1, 0.4, 0.7, 1.0],
        }
    }

    /// Inter-poll interval sweep for Fig. 2 (months).
    pub fn poll_intervals_months(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![3, 6],
            _ => vec![2, 3, 4, 6, 9, 12],
        }
    }

    /// Storage MTBF sweep for Fig. 2 (disk-years).
    pub fn mtbf_years(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![1.0, 5.0],
            _ => vec![1.0, 2.0, 3.0, 4.0, 5.0],
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Ok(Scale::Paper));
        assert_eq!(Scale::parse("default"), Ok(Scale::Default));
        for typo in ["garbage", "qick", "", "defaults"] {
            let err = Scale::parse(typo).expect_err("typos are errors, not `default`");
            assert!(err.contains("quick") && err.contains("paper"), "{err}");
        }
        for s in [Scale::Quick, Scale::Default, Scale::Paper] {
            assert_eq!(Scale::parse(s.label()), Ok(s), "labels parse back");
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.n_peers() <= Scale::Default.n_peers());
        assert!(Scale::Default.small_collection() <= Scale::Paper.small_collection());
        assert!(Scale::Quick.seeds() <= Scale::Paper.seeds());
        for s in [Scale::Quick, Scale::Default, Scale::Paper] {
            assert!(s.small_collection() < s.large_collection());
        }
    }
}
