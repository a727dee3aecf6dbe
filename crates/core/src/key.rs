//! The secret key of the Encrypted M-Index (paper §4.2–4.3).
//!
//! "The secret key of authorized clients consist\[s\] of the set of pivots and
//! key for symmetric cipher used to encrypt the data." Distribution of this
//! struct to a client is what *authorizes* it: without the pivots a party
//! cannot form meaningful queries, and without the cipher key it cannot read
//! candidate objects. The cipher key seals every object the same way:
//! AES-128-CTR + HMAC-SHA-256, the envelope's one mode
//! ([`SecretKey::mode`]).
//!
//! The key holds its pivots as a [`PivotTable`] — the pivot objects plus a
//! contiguous widened copy — because the one thing a client does with them
//! is Alg. 1 / Alg. 2 line 1: the distances from an object to *all* pivots.
//! [`SecretKey::pivot_distances_into`] hands that to the metric's batch
//! entry ([`Metric::distances_to_table`]) as one pass per object with a
//! caller-owned [`TableScratch`], so a bulk of objects allocates nothing
//! per object; a metric that only defines `distance` is evaluated pair by
//! pair by the trait's provided body, with identical results.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use simcloud_crypto::envelope::EnvelopeMode;
use simcloud_crypto::CipherKey;
use simcloud_metric::{select_pivots, Metric, PivotSelection, PivotTable, TableScratch, Vector};

/// Secret key: pivot set + symmetric cipher key.
#[derive(Clone)]
pub struct SecretKey {
    table: PivotTable,
    cipher: CipherKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The pivots are the sensitive part: never print them.
        write!(
            f,
            "SecretKey{{{} pivots, cipher {:?}}}",
            self.table.len(),
            self.cipher
        )
    }
}

impl SecretKey {
    /// Assembles a key from explicit parts.
    pub fn new(pivots: Vec<Vector>, cipher: CipherKey) -> Self {
        assert!(!pivots.is_empty(), "secret key needs at least one pivot");
        Self {
            table: PivotTable::new(pivots),
            cipher,
        }
    }

    /// Data-owner key generation: selects `n` pivots from the owner's data
    /// (the paper chooses them "at random from within the data set", §5.1)
    /// and derives cipher keys from a fresh random master secret.
    ///
    /// Returns the key and the 32-byte master secret the owner distributes
    /// to authorized clients alongside the pivots.
    pub fn generate<M: Metric<Vector>>(
        data: &[Vector],
        n: usize,
        metric: &M,
        selection: PivotSelection,
        seed: u64,
    ) -> (Self, [u8; 32]) {
        let pivots = select_pivots(data, n, metric, selection, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ec2e7);
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        let cipher = CipherKey::derive_from_master(&master);
        (Self::new(pivots, cipher), master)
    }

    /// Reconstructs the key on an authorized client from distributed parts.
    pub fn from_master(pivots: Vec<Vector>, master: &[u8]) -> Self {
        Self::new(pivots, CipherKey::derive_from_master(master))
    }

    /// The pivot set.
    pub fn pivots(&self) -> &[Vector] {
        self.table.pivots()
    }

    /// Number of pivots `n`.
    pub fn num_pivots(&self) -> usize {
        self.table.len()
    }

    /// The envelope (cipher + MAC) key.
    pub fn cipher(&self) -> &CipherKey {
        &self.cipher
    }

    /// Envelope mode used for sealing objects (AES-128-CTR, the only one).
    pub fn mode(&self) -> EnvelopeMode {
        EnvelopeMode::Ctr
    }

    /// Computes the object–pivot distances `d(o, p_i)` — the client-side
    /// step of Alg. 1 line 1 / Alg. 2 line 1.
    pub fn pivot_distances<M: Metric<Vector>>(&self, metric: &M, o: &Vector) -> Vec<f64> {
        let mut scratch = TableScratch::default();
        self.pivot_distances_into(metric, o, &mut scratch);
        scratch.into_distances()
    }

    /// [`SecretKey::pivot_distances`] into a reusable `scratch` (read them
    /// back with [`TableScratch::distances`]): one scratch per bulk keeps
    /// the per-object pass allocation-free.
    pub fn pivot_distances_into<M: Metric<Vector>>(
        &self,
        metric: &M,
        o: &Vector,
        scratch: &mut TableScratch,
    ) {
        metric.distances_to_table(o, &self.table, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud_metric::L2;

    fn sample_data(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| Vector::new(vec![i as f32, (i * i % 13) as f32]))
            .collect()
    }

    #[test]
    fn generate_and_rederive() {
        let data = sample_data(40);
        let (key, master) = SecretKey::generate(&data, 5, &L2, PivotSelection::Random, 11);
        assert_eq!(key.num_pivots(), 5);
        let client_key = SecretKey::from_master(key.pivots().to_vec(), &master);
        // Same cipher: something sealed by the owner opens on the client.
        let mut rng = StdRng::seed_from_u64(1);
        let sealed = key.cipher().seal(b"obj", key.mode(), &mut rng);
        assert_eq!(client_key.cipher().unseal(&sealed).unwrap(), b"obj");
        // Same pivots → same distances.
        let q = Vector::new(vec![3.0, 4.0]);
        assert_eq!(
            key.pivot_distances(&L2, &q),
            client_key.pivot_distances(&L2, &q)
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let data = sample_data(30);
        let (k1, m1) = SecretKey::generate(&data, 4, &L2, PivotSelection::Random, 7);
        let (k2, m2) = SecretKey::generate(&data, 4, &L2, PivotSelection::Random, 7);
        assert_eq!(m1, m2);
        assert_eq!(k1.pivots(), k2.pivots());
        let (k3, m3) = SecretKey::generate(&data, 4, &L2, PivotSelection::Random, 8);
        assert!(m1 != m3 || k1.pivots() != k3.pivots());
    }

    #[test]
    fn debug_hides_pivots() {
        let data = sample_data(10);
        let (key, _) = SecretKey::generate(&data, 3, &L2, PivotSelection::Random, 1);
        let dbg = format!("{key:?}");
        assert!(dbg.contains("3 pivots"));
        assert!(!dbg.contains('['), "no pivot coordinates in {dbg}");
    }

    #[test]
    fn distances_match_metric() {
        let pivots = vec![Vector::new(vec![0.0]), Vector::new(vec![10.0])];
        let cipher = CipherKey::derive_from_master(b"m");
        let key = SecretKey::new(pivots, cipher);
        let ds = key.pivot_distances(&L2, &Vector::new(vec![4.0]));
        assert_eq!(ds, vec![4.0, 6.0]);
    }
}
