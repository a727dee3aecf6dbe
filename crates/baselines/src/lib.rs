//! # simcloud-baselines — the comparison schemes of paper §3 and §5.4
//!
//! The paper positions the Encrypted M-Index against the outsourced
//! similarity-search techniques of Yiu et al. \[4\] and the trivial scheme.
//! All four are implemented here behind one interface ([`SecureScheme`]),
//! with the same client/server/communication cost accounting as the core
//! system, so Table 9's comparison can be regenerated end-to-end:
//!
//! * [`TrivialScheme`] — "encrypt every object and send only the encrypted
//!   objects to the server … client downloads all the objects, decrypts
//!   them and performs the search" (§3). Perfect privacy, absurd
//!   communication cost; the calibration floor.
//! * [`EhiScheme`] — *Encrypted Hierarchical Index* (§3.1): a metric tree
//!   whose nodes are individually encrypted blobs; the server is a dumb
//!   blob store and the client traverses best-first, one round trip per
//!   node. Exact k-NN, high communication and round-trip count.
//! * [`MptScheme`] — *Metric-Preserving Transformation* (§3.2): distances
//!   to public anchors are encrypted with an order-preserving function
//!   (built from a data sample, as the paper notes MPT requires); the
//!   server filters by OPE-interval containment, the client refines.
//! * [`FdhScheme`] — *Flexible Distance-based Hashing* \[4\]: anchor/radius
//!   bit signatures bucket the data; the server returns buckets in
//!   query-signature Hamming order; approximate like the Encrypted
//!   M-Index's k-NN.
//!
//! Every scheme keeps object payloads sealed with the same AES envelope as
//! the core system, so decryption costs are directly comparable.

#![warn(missing_docs)]

pub mod ehi;
pub mod fdh;
pub mod kv;
pub mod mpt;
pub mod trivial;

pub use ehi::EhiScheme;
pub use fdh::FdhScheme;
pub use mpt::MptScheme;
pub use trivial::TrivialScheme;

use simcloud_core::CostReport;
use simcloud_metric::{ObjectId, Vector};
use simcloud_transport::Transport;

/// A search answer: object id and true distance.
pub type Neighbor = (ObjectId, f64);

/// Baseline errors.
#[derive(Debug)]
pub enum SchemeError {
    /// Transport failure.
    Transport(simcloud_transport::TransportError),
    /// Decryption/authentication failure.
    Seal(simcloud_crypto::SealError),
    /// Protocol violation.
    Protocol(String),
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::Transport(e) => write!(f, "transport: {e}"),
            SchemeError::Seal(e) => write!(f, "seal: {e}"),
            SchemeError::Protocol(s) => write!(f, "protocol: {s}"),
        }
    }
}

impl std::error::Error for SchemeError {}

impl From<simcloud_transport::TransportError> for SchemeError {
    fn from(e: simcloud_transport::TransportError) -> Self {
        SchemeError::Transport(e)
    }
}

impl From<simcloud_crypto::SealError> for SchemeError {
    fn from(e: simcloud_crypto::SealError) -> Self {
        SchemeError::Seal(e)
    }
}

/// Common interface of all outsourced secure-search schemes, with the
/// paper's cost decomposition on every operation.
pub trait SecureScheme {
    /// Scheme name as used in §5.4.
    fn name(&self) -> &'static str;

    /// Outsources the collection (construction phase).
    fn build(&mut self, data: &[(ObjectId, Vector)]) -> Result<CostReport, SchemeError>;

    /// k-nearest-neighbor query. `exact` schemes return the true k-NN;
    /// approximate ones their best effort (recall measured externally).
    fn knn(&mut self, q: &Vector, k: usize) -> Result<(Vec<Neighbor>, CostReport), SchemeError>;

    /// Whether `knn` is exact (EHI, trivial) or approximate (MPT via radius
    /// expansion is exact too; FDH is approximate).
    fn is_exact(&self) -> bool;
}

/// One request/response exchange of a scheme, with the transport's server
/// time, communication time and bytes for it booked into `costs`.
fn costed_round_trip(
    transport: &mut impl Transport,
    request: &[u8],
    costs: &mut CostReport,
) -> Result<Vec<u8>, SchemeError> {
    let before = transport.stats();
    let response = transport.round_trip(request)?;
    costs.add_transport(&transport.stats().since(&before));
    Ok(response)
}

/// The error frame every baseline server answers with:
/// `0x04 u16 len utf8` (a message over `u16::MAX` bytes is cut to fit).
fn error_frame(msg: &str) -> Vec<u8> {
    let len = u16::try_from(msg.len()).unwrap_or(u16::MAX);
    let mut out = vec![0x04];
    out.extend_from_slice(&len.to_le_bytes());
    out.extend(msg.bytes().take(usize::from(len)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(SchemeError::Protocol("x".into()).to_string().contains("x"));
    }
}
