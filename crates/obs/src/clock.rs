//! The wall clock: unix milliseconds for heartbeats and `sweep status`.
//! It is only ever used for out-of-band telemetry — simulated time lives
//! in `lockss-sim`.

use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the unix epoch, saturating at zero for clocks
/// set before 1970.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_after_2020() {
        assert!(unix_ms_now() > 1_577_836_800_000);
    }
}
