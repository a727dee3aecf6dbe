//! Cost accounting matching the paper's measurement methodology (§5.2–5.3).
//!
//! Every operation returns a [`CostReport`] with the exact components the
//! evaluation tables break out: client / encryption / decryption / distance
//! computation / server / communication time, plus byte-exact communication
//! cost. Reports add up, so a bulk construction or a 100-query batch is the
//! sum of its operations — the same aggregation the paper performs.
//! Client-side phases accumulate straight into their report field through
//! [`timed`]; server and communication time and the bytes come from the
//! transport's stats delta ([`CostReport::add_transport`]).

use std::time::{Duration, Instant};

use simcloud_transport::TransportStats;

/// Runs `f` and adds its wall time to `into` (a [`CostReport`] duration
/// such as `encryption` or `distance`), returning `f`'s result.
pub fn timed<R>(into: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    *into += start.elapsed();
    result
}

/// Cost components of one or more client operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Total client-side computation (includes encryption, decryption,
    /// distance computations and processing overhead — the paper's
    /// "client time").
    pub client: Duration,
    /// Time sealing objects (construction) — subset of `client`. A bulk
    /// prepared on several workers books its wall time, not the workers'
    /// summed time, split between `encryption` and `distance` in the ratio
    /// of the workers' summed times, so `distance + encryption <= client`
    /// holds on any number of cores.
    pub encryption: Duration,
    /// Time of the whole candidate-refinement loop: unsealing,
    /// deserializing and the per-candidate metric evaluations (search) —
    /// subset of `client` ("decryption time"). The loop is timed as one
    /// phase: with decrypt-on-demand refinement, per-candidate stopwatches
    /// would cost a measurable fraction of the work they measure.
    pub decryption: Duration,
    /// Time computing query–pivot distances on the client — subset of
    /// `client` ("dist. comp. time"). Refinement-loop metric evaluations
    /// are timed inside `decryption` (see above) but *counted* exactly in
    /// `distance_computations`. Object–pivot distances of a bulk prepared
    /// on several workers are booked as wall-time shares (see
    /// `encryption`).
    pub distance: Duration,
    /// Server-side processing time.
    pub server: Duration,
    /// Communication time (modelled for in-process, measured for TCP).
    pub communication: Duration,
    /// Bytes sent client → server.
    pub bytes_sent: u64,
    /// Bytes received server → client.
    pub bytes_received: u64,
    /// Client-side metric evaluations.
    pub distance_computations: u64,
    /// Candidates received (search ops).
    pub candidates: u64,
    /// Candidates actually unsealed during refinement. Eager refinement
    /// decrypts everything (`decrypted == candidates`); lazy decrypt-on-
    /// demand refinement stops early, so `1 − decrypted/candidates` is the
    /// early-exit rate.
    pub decrypted: u64,
    /// Candidates that authenticated but decoded to garbage (a buggy
    /// authorized writer) and were skipped by refinement instead of
    /// aborting the query. Authentication (MAC) failures are *not* counted
    /// here — they are active tampering and abort the query immediately.
    pub bad_candidates: u64,
    /// Sealed objects pulled in phase-2 `FetchObjects` round trips (the
    /// two-phase wire). Candidates inlined in the phase-1 answer are *not*
    /// counted: `candidates − fetched` payload transfers were saved
    /// relative to the eager single-phase wire, minus the over-fetch
    /// `fetched − (decrypted − inlined)` the adaptive batching cost.
    pub fetched: u64,
    /// Phase-2 round trips issued (`FetchObjects` exchanges).
    pub fetch_requests: u64,
}

impl CostReport {
    /// The paper's "overall time": client + server + communication.
    pub fn overall(&self) -> Duration {
        self.client + self.server + self.communication
    }

    /// The paper's "communication cost" in kB (total bytes / 1000).
    pub fn communication_kb(&self) -> f64 {
        (self.bytes_sent + self.bytes_received) as f64 / 1000.0
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &CostReport) {
        self.client += other.client;
        self.encryption += other.encryption;
        self.decryption += other.decryption;
        self.distance += other.distance;
        self.server += other.server;
        self.communication += other.communication;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.distance_computations += other.distance_computations;
        self.candidates += other.candidates;
        self.decrypted += other.decrypted;
        self.bad_candidates += other.bad_candidates;
        self.fetched += other.fetched;
        self.fetch_requests += other.fetch_requests;
    }

    /// Books a transport-stats delta (one or more round trips): its server
    /// time, communication time and bytes in both directions.
    pub fn add_transport(&mut self, delta: &TransportStats) {
        self.server += delta.server_time;
        self.communication += delta.comm_time;
        self.bytes_sent += delta.bytes_sent;
        self.bytes_received += delta.bytes_received;
    }

    /// Divides all components by `n` (average over a query batch — the
    /// paper averages over 100 queries).
    pub fn averaged(&self, n: u32) -> CostReport {
        assert!(n > 0);
        CostReport {
            client: self.client / n,
            encryption: self.encryption / n,
            decryption: self.decryption / n,
            distance: self.distance / n,
            server: self.server / n,
            communication: self.communication / n,
            bytes_sent: self.bytes_sent / n as u64,
            bytes_received: self.bytes_received / n as u64,
            distance_computations: self.distance_computations / n as u64,
            candidates: self.candidates / n as u64,
            decrypted: self.decrypted / n as u64,
            bad_candidates: self.bad_candidates / n as u64,
            fetched: self.fetched / n as u64,
            fetch_requests: self.fetch_requests / n as u64,
        }
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Client time [s]        {:>10.4}",
            self.client.as_secs_f64()
        )?;
        if self.encryption > Duration::ZERO {
            writeln!(
                f,
                "  Encryption time [s]  {:>10.4}",
                self.encryption.as_secs_f64()
            )?;
        }
        if self.decryption > Duration::ZERO {
            writeln!(
                f,
                "  Decryption time [s]  {:>10.4}",
                self.decryption.as_secs_f64()
            )?;
        }
        writeln!(
            f,
            "  Dist. comp. time [s] {:>10.4}",
            self.distance.as_secs_f64()
        )?;
        writeln!(
            f,
            "Server time [s]        {:>10.4}",
            self.server.as_secs_f64()
        )?;
        writeln!(
            f,
            "Communication time [s] {:>10.4}",
            self.communication.as_secs_f64()
        )?;
        writeln!(
            f,
            "Overall time [s]       {:>10.4}",
            self.overall().as_secs_f64()
        )?;
        if self.candidates > 0 {
            writeln!(
                f,
                "Candidates decrypted   {:>7} of {} ({:.1}% early-exit)",
                self.decrypted,
                self.candidates,
                100.0 * (1.0 - self.decrypted as f64 / self.candidates as f64)
            )?;
        }
        if self.fetch_requests > 0 {
            writeln!(
                f,
                "Phase-2 fetches        {:>7} objects in {} round trips",
                self.fetched, self.fetch_requests
            )?;
        }
        write!(
            f,
            "Communication cost [kB] {:>9.3}",
            self.communication_kb()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostReport {
        CostReport {
            client: Duration::from_millis(10),
            encryption: Duration::from_millis(3),
            decryption: Duration::from_millis(2),
            distance: Duration::from_millis(4),
            server: Duration::from_millis(5),
            communication: Duration::from_millis(1),
            bytes_sent: 1000,
            bytes_received: 3000,
            distance_computations: 42,
            candidates: 10,
            decrypted: 6,
            bad_candidates: 2,
            fetched: 4,
            fetch_requests: 2,
        }
    }

    #[test]
    fn timed_accumulates_and_returns_result() {
        let mut total = Duration::from_secs(1);
        let x = timed(&mut total, || {
            std::thread::sleep(Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(x, 42);
        assert!(total >= Duration::from_millis(1002));
    }

    #[test]
    fn overall_is_three_component_sum() {
        let c = sample();
        assert_eq!(c.overall(), Duration::from_millis(16));
        assert!((c.communication_kb() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_then_average_round_trips() {
        let mut total = CostReport::default();
        for _ in 0..4 {
            total.merge(&sample());
        }
        let avg = total.averaged(4);
        assert_eq!(avg, sample());
    }

    #[test]
    fn display_has_paper_row_labels() {
        let s = sample().to_string();
        for label in [
            "Client time [s]",
            "Encryption time [s]",
            "Decryption time [s]",
            "Dist. comp. time [s]",
            "Server time [s]",
            "Communication time [s]",
            "Overall time [s]",
            "Candidates decrypted",
            "Phase-2 fetches",
            "Communication cost [kB]",
        ] {
            assert!(s.contains(label), "missing {label} in:\n{s}");
        }
    }

    #[test]
    #[should_panic]
    fn average_by_zero_panics() {
        let _ = sample().averaged(0);
    }

    /// The early-exit rate is derived from `decrypted` vs `candidates` and
    /// shown in every table; a report with no candidates omits the line.
    #[test]
    fn display_shows_early_exit_rate() {
        let s = sample().to_string();
        assert!(s.contains("6 of 10"), "missing decrypted counts:\n{s}");
        assert!(s.contains("40.0% early-exit"), "missing rate:\n{s}");
        let quiet = CostReport::default().to_string();
        assert!(
            !quiet.contains("Candidates decrypted"),
            "no-candidate report must omit the line:\n{quiet}"
        );
    }
}
