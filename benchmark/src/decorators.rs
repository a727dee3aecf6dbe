//! The benchmark's decorators around each layer's public trait. They time
//! calls from outside; nothing inside the program is edited. Each returns
//! exactly what the wrapped object returns.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::spans::{Layer, SpanLog};
use crate::sut::{
    BucketId, BucketStore, IoStats, Metric, Record, Request, RequestClass, Response, Routing,
    SharedRequestHandler, StorageError, Transport, TransportError, TransportStats, Vector,
};

/// Times every `Metric::distance` call into the span log.
#[derive(Debug, Clone)]
pub struct TracedMetric<M> {
    pub inner: M,
    pub log: Arc<SpanLog>,
}

impl<M: Metric<Vector>> Metric<Vector> for TracedMetric<M> {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        if !self.log.is_on() {
            return self.inner.distance(a, b);
        }
        let start = Instant::now();
        let d = self.inner.distance(a, b);
        self.log.add_metric_ns(start.elapsed().as_nanos() as u64);
        d
    }

    fn max_distance(&self) -> Option<f64> {
        self.inner.max_distance()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A `transport.round_trip` span around every exchange.
#[derive(Debug)]
pub struct TracedTransport<T> {
    pub inner: T,
    pub log: Arc<SpanLog>,
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let _span = self.log.enter("transport.round_trip", Layer::Transport);
        self.inner.round_trip(request)
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        let _span = self.log.enter("transport.round_trip", Layer::Transport);
        self.inner.round_trip_with(request, class, deadline)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// One recorded exchange: the exact request bytes, and of the response its
/// length and the ids it carried in order (a replayed answer must carry the
/// same). Whole responses are not kept: a hundred 1 MB candidate lists
/// would dominate `peak_rss_mb`.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    pub request: Vec<u8>,
    pub response_len: usize,
    pub ids: Vec<u64>,
    /// Sealed payloads the answer carried inline.
    pub inlined: usize,
}

#[derive(Debug, Default)]
pub struct TapeInner {
    pub exchanges: Vec<Exchange>,
    /// The first search answer, whole, for the codec measurements.
    pub sample_response: Option<Vec<u8>>,
    /// Answers that failed `response_ids` while recording.
    pub malformed: u64,
}

pub type Tape = Arc<Mutex<TapeInner>>;

/// Decodes a search or fetch answer and checks its shape: candidate headers
/// ascend by bound and carry at most as many payloads as headers. Returns
/// the ids in wire order and how many sealed payloads came with them.
pub fn response_ids(response: &[u8]) -> Result<(Vec<u64>, usize), String> {
    match Response::decode(response).map_err(|e| e.to_string())? {
        Response::CandidateList(list) => {
            if list.payloads.len() > list.headers.len() {
                return Err("more payloads than headers".into());
            }
            if list
                .headers
                .windows(2)
                .any(|w| w[0].lower_bound > w[1].lower_bound)
            {
                return Err("headers not ascending by bound".into());
            }
            Ok((
                list.headers.iter().map(|h| h.id).collect(),
                list.payloads.len(),
            ))
        }
        Response::Objects(objects) => Ok((objects.iter().map(|o| o.id).collect(), objects.len())),
        other => Err(format!(
            "not a search or fetch answer: {:.60}",
            format!("{other:?}")
        )),
    }
}

/// Records the exact bytes a real client exchanges, for thin replay.
#[derive(Debug)]
pub struct RecordingTransport<T> {
    pub inner: T,
    pub tape: Tape,
}

impl<T: Transport> RecordingTransport<T> {
    fn record(&self, request: &[u8], response: &Result<Vec<u8>, TransportError>) {
        let Ok(response) = response else { return };
        let mut tape = self.tape.lock().expect("tape poisoned");
        match response_ids(response) {
            Ok((ids, inlined)) => {
                tape.sample_response.get_or_insert_with(|| response.clone());
                tape.exchanges.push(Exchange {
                    request: request.to_vec(),
                    response_len: response.len(),
                    ids,
                    inlined,
                });
            }
            Err(_) => tape.malformed += 1,
        }
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let response = self.inner.round_trip(request);
        self.record(request, &response);
        response
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        class: RequestClass,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        let response = self.inner.round_trip_with(request, class, deadline);
        self.record(request, &response);
        response
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Wire tags of the request kinds the benchmark sends, read off encoded
/// sample requests so no tag value is hard-coded here.
#[derive(Debug, Clone, Copy)]
pub struct RequestTags {
    insert: u8,
    range: u8,
    knn: u8,
    fetch: u8,
}

impl Default for RequestTags {
    fn default() -> Self {
        let tag = |r: Request| r.encode()[0];
        Self {
            insert: tag(Request::Insert(Vec::new())),
            range: tag(Request::Range {
                distances: Vec::new(),
                radius: 0.0,
            }),
            knn: tag(Request::ApproxKnn {
                routing: Routing::from_distances(&[]),
                cand_size: 0,
            }),
            fetch: tag(Request::FetchObjects { ids: Vec::new() }),
        }
    }
}

impl RequestTags {
    pub fn is_knn(&self, request: &[u8]) -> bool {
        request.first() == Some(&self.knn)
    }

    fn span_name(&self, request: &[u8]) -> &'static str {
        match request.first() {
            Some(&t) if t == self.insert => "server.handle.insert",
            Some(&t) if t == self.range => "server.handle.range",
            Some(&t) if t == self.knn => "server.handle.knn",
            Some(&t) if t == self.fetch => "server.handle.fetch",
            _ => "server.handle.other",
        }
    }
}

/// A `server.handle.<kind>` span around `handle_shared`.
#[derive(Debug)]
pub struct TracedHandler<H> {
    pub inner: Arc<H>,
    pub log: Arc<SpanLog>,
    pub tags: RequestTags,
}

impl<H: SharedRequestHandler> SharedRequestHandler for TracedHandler<H> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        let _span = self.log.enter(self.tags.span_name(request), Layer::Server);
        self.inner.handle_shared(request)
    }
}

/// `storage.*` spans (with record counts) around a `BucketStore`.
#[derive(Debug)]
pub struct TracedStore<S> {
    pub inner: S,
    pub log: Arc<SpanLog>,
}

impl<S: BucketStore> BucketStore for TracedStore<S> {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        let mut span = self.log.enter("storage.append", Layer::Storage);
        if let Some(s) = span.as_mut() {
            s.set_count(1);
        }
        self.inner.append(bucket, record)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        let mut span = self.log.enter("storage.read", Layer::Storage);
        let records = self.inner.read_bucket(bucket);
        if let (Some(s), Ok(r)) = (span.as_mut(), &records) {
            s.set_count(r.len());
        }
        records
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        let mut span = self.log.enter("storage.read_matching", Layer::Storage);
        let records = self.inner.read_matching(bucket, wanted);
        if let (Some(s), Ok(r)) = (span.as_mut(), &records) {
            s.set_count(r.len());
        }
        records
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.inner.bucket_len(bucket)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.inner.delete_bucket(bucket)
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.inner.bucket_ids()
    }

    fn total_records(&self) -> u64 {
        self.inner.total_records()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        let _span = self.log.enter("storage.flush", Layer::Storage);
        self.inner.flush()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{CandidateHeader, CandidateList, MemoryStore};

    /// A transport whose server is a pure function of the request: it
    /// answers a candidate list whose ids are the request's bytes.
    struct Loopback(TransportStats);

    impl Transport for Loopback {
        fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
            self.0.requests += 1;
            let headers = request
                .iter()
                .enumerate()
                .map(|(i, &b)| CandidateHeader {
                    id: u64::from(b),
                    lower_bound: i as f64,
                })
                .collect();
            Ok(Response::CandidateList(CandidateList {
                headers,
                payloads: Vec::new(),
            })
            .encode())
        }
        fn stats(&self) -> TransportStats {
            self.0
        }
    }

    fn log(on: bool) -> Arc<SpanLog> {
        let log = Arc::new(SpanLog::default());
        log.set_on(on);
        log
    }

    #[test]
    fn traced_transport_returns_what_the_wrapped_transport_returns() {
        let log = log(true);
        let mut plain = Loopback(TransportStats::default());
        let mut traced = TracedTransport {
            inner: Loopback(TransportStats::default()),
            log: log.clone(),
        };
        for req in [&b"abc"[..], &[], &[0, 255, 7]] {
            assert_eq!(
                plain.round_trip(req).unwrap(),
                traced.round_trip(req).unwrap()
            );
            assert_eq!(
                plain
                    .round_trip_with(req, RequestClass::Idempotent, None)
                    .unwrap(),
                traced
                    .round_trip_with(req, RequestClass::Idempotent, None)
                    .unwrap()
            );
        }
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(log.drain().len(), 6);
    }

    #[test]
    fn traced_store_returns_what_the_wrapped_store_returns() {
        let log = log(true);
        let mut plain = MemoryStore::new();
        let mut traced = TracedStore {
            inner: MemoryStore::new(),
            log: log.clone(),
        };
        for i in 0..20u64 {
            let rec = Record {
                id: i,
                payload: vec![i as u8; 5 + i as usize],
            };
            plain.append(BucketId(i % 3), rec.clone()).unwrap();
            traced.append(BucketId(i % 3), rec).unwrap();
        }
        for b in 0..3 {
            let b = BucketId(b);
            assert_eq!(
                plain.read_bucket(b).unwrap(),
                traced.read_bucket(b).unwrap()
            );
            let even = |id: u64| id.is_multiple_of(2);
            assert_eq!(
                plain.read_matching(b, &even).unwrap(),
                traced.read_matching(b, &even).unwrap()
            );
            assert_eq!(plain.bucket_len(b), traced.bucket_len(b));
        }
        assert!(traced.read_bucket(BucketId(9)).is_err());
        assert_eq!(plain.total_records(), traced.total_records());
        assert_eq!(plain.stats(), traced.stats());
        let spans = log.drain();
        let reads: u32 = spans
            .iter()
            .filter(|s| s.name == "storage.read")
            .map(|s| s.count)
            .sum();
        assert_eq!(reads, 20, "every record read is counted once");
    }

    #[test]
    fn recorder_tape_replays_byte_identical_requests() {
        let tape: Tape = Arc::default();
        let mut recording = RecordingTransport {
            inner: Loopback(TransportStats::default()),
            tape: tape.clone(),
        };
        let requests: Vec<Vec<u8>> = vec![
            Request::Info.encode(),
            Request::FetchObjects { ids: vec![3, 1, 2] }.encode(),
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.5, 1.5]),
                cand_size: 40,
            }
            .encode(),
        ];
        let answers: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| recording.round_trip(r).unwrap())
            .collect();
        // Replay: what goes back on the wire is the recorded bytes, and a
        // deterministic server answers them identically.
        let mut replay = Loopback(TransportStats::default());
        let tape = tape.lock().unwrap();
        assert_eq!(tape.exchanges.len(), requests.len());
        assert_eq!(tape.sample_response.as_ref(), answers.first());
        for ((exchange, sent), answered) in tape.exchanges.iter().zip(&requests).zip(&answers) {
            assert_eq!(&exchange.request, sent);
            assert_eq!(exchange.response_len, answered.len());
            let replayed = replay.round_trip(&exchange.request).unwrap();
            assert_eq!(&replayed, answered);
            assert_eq!(response_ids(&replayed).unwrap().0, exchange.ids);
        }
    }

    #[test]
    fn response_ids_rejects_bad_shapes() {
        let header = |id, lower_bound| CandidateHeader { id, lower_bound };
        let descending = Response::CandidateList(CandidateList {
            headers: vec![header(1, 2.0), header(2, 1.0)],
            payloads: Vec::new(),
        });
        assert!(response_ids(&descending.encode()).is_err());
        assert!(response_ids(&Response::Inserted(3).encode()).is_err());
        assert!(response_ids(&[0xff, 1, 2]).is_err());
        let fine = Response::CandidateList(CandidateList {
            headers: vec![header(9, 0.0), header(4, 0.0)],
            payloads: vec![vec![1]],
        });
        assert_eq!(response_ids(&fine.encode()).unwrap(), (vec![9, 4], 1));
    }

    #[test]
    fn request_tags_name_each_kind() {
        let tags = RequestTags::default();
        let knn = Request::ApproxKnn {
            routing: Routing::from_distances(&[1.0]),
            cand_size: 1,
        }
        .encode();
        assert!(tags.is_knn(&knn));
        assert_eq!(tags.span_name(&knn), "server.handle.knn");
        assert_eq!(
            tags.span_name(&Request::Insert(Vec::new()).encode()),
            "server.handle.insert"
        );
        assert_eq!(
            tags.span_name(&Request::Info.encode()),
            "server.handle.other"
        );
    }
}
