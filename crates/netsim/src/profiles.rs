//! Calibrated link profiles for the paper's two evaluation networks.
//!
//! Calibration targets come from the paper's own measurements:
//!
//! * **Cypress** (Figure 1): 9600-baud serial lines into the Internet;
//!   first-time (full) transfer of a 500 KB file took ≈ 600 s. With
//!   512-byte segments + 40-byte TCP/IP headers and a 1.25 derating for
//!   Cypress's store-and-forward implet hops, the model reproduces that:
//!   539 KB wire ÷ (9600/1.25 bps) ≈ 561 s.
//! * **ARPANET** (Figures 2–3): 56 Kbps trunks, but the paper stresses that
//!   "the effective bandwidth available to individual users will be less
//!   due to the large number of users and congestion problems" \[Nag84\] —
//!   its own 500 KB full-transfer estimate is again ≈ 600 s, i.e. ≈ 12% of
//!   line rate. The profile derates accordingly (load factor 8.0).
//! * **LAN**: a 10 Mbps Ethernet-class link for fast local tests.

use crate::{LinkProfile, SimTime};

/// The Cypress network: 9600 baud, dial-up-grade latency, light derating
/// for its store-and-forward hops.
pub fn cypress() -> LinkProfile {
    LinkProfile::new("cypress", 9_600, SimTime::from_millis(150))
        .with_segmentation(512, 40)
        .with_load_factor(1.25)
}

/// ARPANET Purdue → Univ. of Illinois: 56 Kbps line rate, heavily shared
/// (effective throughput ≈ 12% of line rate, per the paper's measurements).
pub fn arpanet() -> LinkProfile {
    LinkProfile::new("arpanet", 56_000, SimTime::from_millis(250))
        .with_segmentation(512, 40)
        .with_load_factor(8.0)
}

/// A 10 Mbps local-area link for functional tests.
pub fn lan() -> LinkProfile {
    LinkProfile::new("lan", 10_000_000, SimTime::from_millis(2)).with_segmentation(1460, 40)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cypress_full_transfer_of_500k_is_about_600s() {
        let t = cypress().transmit_time(500_000).as_secs_f64();
        assert!((500.0..700.0).contains(&t), "t = {t}");
    }

    #[test]
    fn cypress_full_transfer_of_100k_is_about_two_minutes() {
        let t = cypress().transmit_time(100_000).as_secs_f64();
        assert!((90.0..140.0).contains(&t), "t = {t}");
    }

    #[test]
    fn arpanet_effective_rate_matches_paper_magnitude() {
        let t = arpanet().transmit_time(500_000).as_secs_f64();
        assert!((500.0..700.0).contains(&t), "t = {t}");
        // Line rate would be ~77 s; congestion dominates.
        let undiluted = LinkProfile::new("raw", 56_000, SimTime::ZERO)
            .with_segmentation(512, 40)
            .transmit_time(500_000)
            .as_secs_f64();
        assert!(undiluted < 100.0);
    }

    #[test]
    fn lan_is_fast() {
        let t = lan().transmit_time(500_000).as_secs_f64();
        assert!(t < 1.0, "t = {t}");
    }
}
