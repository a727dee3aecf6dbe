//! Transport statistics — the paper's "communication time" and
//! "communication cost" columns.

use std::time::Duration;

/// Cumulative transport statistics for one client connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Number of request/response round trips.
    pub requests: u64,
    /// Exact bytes sent client → server (including frame headers).
    pub bytes_sent: u64,
    /// Exact bytes received server → client (including frame headers).
    pub bytes_received: u64,
    /// Accumulated server-side processing time.
    pub server_time: Duration,
    /// Accumulated communication time (modelled or measured).
    pub comm_time: Duration,
    /// Attempts beyond the first, across all requests (TCP retry loop).
    pub retries: u64,
    /// Connections re-established after a failure (TCP reconnect).
    pub reconnects: u64,
}

impl TransportStats {
    /// Total bytes moved in either direction — the paper's "communication
    /// cost \[kB\]" rows report this per query.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Difference since an earlier snapshot (per-operation accounting).
    pub fn since(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            requests: self.requests - earlier.requests,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            server_time: self.server_time.saturating_sub(earlier.server_time),
            comm_time: self.comm_time.saturating_sub(earlier.comm_time),
            retries: self.retries - earlier.retries,
            reconnects: self.reconnects - earlier.reconnects,
        }
    }
}

impl std::fmt::Display for TransportStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} req, {:.3} kB sent, {:.3} kB recv, server {:?}, comm {:?}",
            self.requests,
            self.bytes_sent as f64 / 1000.0,
            self.bytes_received as f64 / 1000.0,
            self.server_time,
            self.comm_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_since() {
        let a = TransportStats {
            requests: 2,
            bytes_sent: 100,
            bytes_received: 300,
            server_time: Duration::from_millis(5),
            comm_time: Duration::from_millis(2),
            ..TransportStats::default()
        };
        assert_eq!(a.total_bytes(), 400);
        let mut b = a;
        b.requests = 5;
        b.bytes_sent = 150;
        let d = b.since(&a);
        assert_eq!(d.requests, 3);
        assert_eq!(d.bytes_sent, 50);
        assert_eq!(d.bytes_received, 0);
    }

    #[test]
    fn display_contains_components() {
        let s = TransportStats {
            requests: 1,
            bytes_sent: 1000,
            bytes_received: 2000,
            ..Default::default()
        };
        let out = s.to_string();
        assert!(out.contains("1 req"));
        assert!(out.contains("1.000 kB"));
        assert!(out.contains("2.000 kB"));
    }
}
