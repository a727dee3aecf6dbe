//! Dumb blob-store server — the server role in the trivial and EHI schemes.
//!
//! "Server cannot traverse through the structure and can only serve as a
//! storage, sending the client what was requested" (paper §3.1). Protocol:
//!
//! ```text
//! request  := 0x01 u64 key u32 len bytes      PUT
//!           | 0x02 u64 key                    GET
//!           | 0x03                            GET_ALL
//! response := 0x01                            PUT ok
//!           | 0x02 u32 len bytes              blob
//!           | 0x03 u32 n { u64 key; u32 len; bytes }*n
//!           | 0x04 u16 len utf8               error
//! ```

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use simcloud_transport::SharedRequestHandler;

use crate::error_frame;

/// In-memory blob store keyed by `u64`.
#[derive(Debug, Default)]
pub struct KvServer {
    blobs: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl KvServer {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blobs held.
    pub fn len(&self) -> usize {
        self.blobs().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blobs().is_empty()
    }

    /// The blob map. A panicked holder cannot leave it half-written (every
    /// mutation is one map call), so a poisoned lock is taken as is.
    fn blobs(&self) -> MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        self.blobs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Client-side request encoders.
pub mod wire {
    /// Encodes a PUT.
    pub fn put(key: u64, blob: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 + blob.len());
        out.push(0x01);
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(blob);
        out
    }

    /// Encodes a GET.
    pub fn get(key: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(9);
        out.push(0x02);
        out.extend_from_slice(&key.to_le_bytes());
        out
    }

    /// Encodes GET_ALL.
    pub fn get_all() -> Vec<u8> {
        vec![0x03]
    }

    /// Decodes a blob response.
    pub fn decode_blob(resp: &[u8]) -> Option<Vec<u8>> {
        if resp.first() != Some(&0x02) || resp.len() < 5 {
            return None;
        }
        let len = u32::from_le_bytes(resp[1..5].try_into().unwrap()) as usize;
        if resp.len() != 5 + len {
            return None;
        }
        Some(resp[5..].to_vec())
    }

    /// Decodes a GET_ALL response into `(key, blob)` pairs.
    pub fn decode_all(resp: &[u8]) -> Option<Vec<(u64, Vec<u8>)>> {
        if resp.first() != Some(&0x03) || resp.len() < 5 {
            return None;
        }
        let n = u32::from_le_bytes(resp[1..5].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(n);
        let mut off = 5;
        for _ in 0..n {
            if resp.len() < off + 12 {
                return None;
            }
            let key = u64::from_le_bytes(resp[off..off + 8].try_into().unwrap());
            let len = u32::from_le_bytes(resp[off + 8..off + 12].try_into().unwrap()) as usize;
            off += 12;
            if resp.len() < off + len {
                return None;
            }
            out.push((key, resp[off..off + len].to_vec()));
            off += len;
        }
        Some(out)
    }

    /// True if the response acknowledges a PUT.
    pub fn is_put_ok(resp: &[u8]) -> bool {
        resp == [0x01]
    }
}

impl SharedRequestHandler for KvServer {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        match request.first() {
            Some(0x01) => {
                if request.len() < 13 {
                    return error_frame("short put");
                }
                let key = u64::from_le_bytes(request[1..9].try_into().unwrap());
                let len = u32::from_le_bytes(request[9..13].try_into().unwrap()) as usize;
                if request.len() != 13 + len {
                    return error_frame("put length mismatch");
                }
                self.blobs().insert(key, request[13..].to_vec());
                vec![0x01]
            }
            Some(0x02) => {
                if request.len() != 9 {
                    return error_frame("short get");
                }
                let key = u64::from_le_bytes(request[1..9].try_into().unwrap());
                match self.blobs().get(&key) {
                    Some(blob) => {
                        let mut out = Vec::with_capacity(5 + blob.len());
                        out.push(0x02);
                        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                        out.extend_from_slice(blob);
                        out
                    }
                    None => error_frame("unknown key"),
                }
            }
            Some(0x03) => {
                let blobs = self.blobs();
                let mut out = vec![0x03];
                out.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
                for (k, blob) in blobs.iter() {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                    out.extend_from_slice(blob);
                }
                out
            }
            _ => error_frame("unknown op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let s = KvServer::new();
        assert!(wire::is_put_ok(&s.handle_shared(&wire::put(7, b"hello"))));
        let resp = s.handle_shared(&wire::get(7));
        assert_eq!(wire::decode_blob(&resp).unwrap(), b"hello");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_missing_is_error() {
        let s = KvServer::new();
        let resp = s.handle_shared(&wire::get(9));
        assert_eq!(resp[0], 0x04);
        assert!(wire::decode_blob(&resp).is_none());
    }

    #[test]
    fn get_all_returns_everything_in_key_order() {
        let s = KvServer::new();
        s.handle_shared(&wire::put(2, b"b"));
        s.handle_shared(&wire::put(1, b"a"));
        let all = wire::decode_all(&s.handle_shared(&wire::get_all())).unwrap();
        assert_eq!(all, vec![(1, b"a".to_vec()), (2, b"b".to_vec())]);
    }

    #[test]
    fn malformed_requests_are_errors() {
        let s = KvServer::new();
        assert_eq!(s.handle_shared(&[])[0], 0x04);
        assert_eq!(s.handle_shared(&[0x01, 1])[0], 0x04);
        assert_eq!(s.handle_shared(&[0x09])[0], 0x04);
    }

    #[test]
    fn put_overwrites() {
        let s = KvServer::new();
        s.handle_shared(&wire::put(1, b"old"));
        s.handle_shared(&wire::put(1, b"new"));
        assert_eq!(
            wire::decode_blob(&s.handle_shared(&wire::get(1))).unwrap(),
            b"new"
        );
        assert_eq!(s.len(), 1);
    }
}
