//! Link profiles: the home-network media a 2002 deployment would see.

/// Physical characteristics of a (simulated) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation + processing latency, microseconds.
    pub latency_us: u64,
    /// Usable bandwidth, bits per second.
    pub bandwidth_bps: u64,
    /// Max symmetric random jitter added per packet, microseconds.
    pub jitter_us: u64,
    /// Packet loss probability in `0..1`; lost packets are retransmitted
    /// after one RTT (the link stays reliable, it just stalls).
    pub loss: f64,
    /// Human-readable name.
    pub name: &'static str,
}

impl LinkProfile {
    /// Switched 100 Mb/s Ethernet (wired home backbone).
    pub const fn ethernet100() -> LinkProfile {
        LinkProfile {
            latency_us: 200,
            bandwidth_bps: 100_000_000,
            jitter_us: 50,
            loss: 0.0,
            name: "ethernet-100",
        }
    }

    /// 802.11b WLAN as a 2002 PDA would use (11 Mb/s nominal, ~5 usable).
    pub const fn wifi80211b() -> LinkProfile {
        LinkProfile {
            latency_us: 2_000,
            bandwidth_bps: 5_000_000,
            jitter_us: 1_500,
            loss: 0.01,
            name: "wifi-802.11b",
        }
    }

    /// Bluetooth 1.1 (723 kb/s asymmetric).
    pub const fn bluetooth() -> LinkProfile {
        LinkProfile {
            latency_us: 15_000,
            bandwidth_bps: 723_000,
            jitter_us: 5_000,
            loss: 0.02,
            name: "bluetooth-1.1",
        }
    }

    /// Cellular GPRS uplink, the cellular-phone path of the paper.
    pub const fn cellular_gprs() -> LinkProfile {
        LinkProfile {
            latency_us: 300_000,
            bandwidth_bps: 40_000,
            jitter_us: 80_000,
            loss: 0.03,
            name: "cellular-gprs",
        }
    }

    /// An ideal zero-cost link, useful as a baseline.
    pub const fn ideal() -> LinkProfile {
        LinkProfile {
            latency_us: 0,
            bandwidth_bps: u64::MAX,
            jitter_us: 0,
            loss: 0.0,
            name: "ideal",
        }
    }

    /// All realistic presets, slowest last.
    pub fn presets() -> [LinkProfile; 4] {
        [
            LinkProfile::ethernet100(),
            LinkProfile::wifi80211b(),
            LinkProfile::bluetooth(),
            LinkProfile::cellular_gprs(),
        ]
    }

    /// Microseconds to serialize `bytes` onto this link.
    pub fn tx_time_us(&self, bytes: usize) -> u64 {
        if self.bandwidth_bps == u64::MAX {
            return 0;
        }
        (bytes as u128 * 8 * 1_000_000 / self.bandwidth_bps as u128) as u64
    }
}

impl core::fmt::Display for LinkProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_scales_with_size() {
        let l = LinkProfile::bluetooth();
        assert!(l.tx_time_us(1000) > l.tx_time_us(100));
        // 1000 bytes at 723 kb/s ≈ 11ms.
        let t = l.tx_time_us(1000);
        assert!((10_000..13_000).contains(&t), "{t}");
    }

    #[test]
    fn ideal_link_is_free() {
        let l = LinkProfile::ideal();
        assert_eq!(l.tx_time_us(1_000_000), 0);
        assert_eq!(l.latency_us, 0);
    }

    #[test]
    fn presets_ordered_by_speed() {
        let p = LinkProfile::presets();
        for w in p.windows(2) {
            assert!(w[0].bandwidth_bps > w[1].bandwidth_bps);
            assert!(w[0].latency_us < w[1].latency_us);
        }
    }
}
