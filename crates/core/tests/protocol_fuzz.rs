//! Protocol robustness: the server parses bytes from the network; the
//! client parses bytes from an untrusted server. Neither side may panic on
//! arbitrary input, and encode∘decode must be the identity on valid
//! messages.

use proptest::prelude::*;
use simcloud_core::protocol::{
    Candidate, CandidateHeader, CandidateList, CandidateListView, FetchedObject, InsertView,
    Request, RequestView, Response, SearchAnswerView,
};
use simcloud_mindex::{IndexEntry, Routing};

fn arb_routing() -> impl Strategy<Value = Routing> {
    prop_oneof![
        proptest::collection::vec(0.0f64..1000.0, 1..64)
            .prop_map(|ds| Routing::from_distances(&ds)),
        (proptest::collection::vec(0.0f64..1000.0, 1..64), 1usize..8).prop_map(|(ds, l)| {
            let l = l.min(ds.len());
            Routing::permutation_prefix(&ds, l)
        }),
    ]
}

fn arb_entry() -> impl Strategy<Value = IndexEntry> {
    (
        any::<u64>(),
        arb_routing(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(id, routing, payload)| IndexEntry::new(id, routing, payload))
}

/// The borrowed parser a refining client reads frames through
/// (`SearchAnswerView` over `CandidateListView`) must accept and reject
/// exactly what `Response::decode` does — same error, and on success the
/// same response once copied out of the frame.
fn views_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let copied = |list: CandidateListView<'_>| list.to_owned();
    let owned = Response::decode(bytes);
    let viewed = SearchAnswerView::parse(bytes).map(|view| match view {
        SearchAnswerView::List(list) => Response::CandidateList(copied(list)),
        SearchAnswerView::Sets(sets) => {
            Response::CandidateSets(sets.into_iter().map(|slot| slot.map(copied)).collect())
        }
        SearchAnswerView::Other(response) => response,
    });
    prop_assert_eq!(viewed, owned);
    Ok(())
}

/// The borrowed parser a server reads request frames through
/// (`RequestView` over `InsertView`) must accept and reject exactly what
/// `Request::decode` does — same error, and on success the same request
/// once each insert entry is copied out of the frame.
fn request_views_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let copied = |insert: InsertView<'_>| {
        let entries = insert.entries();
        Request::Insert(
            entries
                .iter()
                .map(|(id, body)| body.to_entry(*id))
                .collect(),
        )
    };
    let viewed = RequestView::parse(bytes).map(|view| match view {
        RequestView::Insert(insert) => copied(insert),
        RequestView::Other(request) => request,
    });
    prop_assert_eq!(viewed, Request::decode(bytes));
    Ok(())
}

/// A response round-trips, and the view parser agrees with the owned
/// decoder on it, on every truncation of it and with a trailing byte.
fn response_round_trips(resp: &Response) -> Result<(), TestCaseError> {
    let mut bytes = resp.encode();
    prop_assert_eq!(&Response::decode(&bytes).unwrap(), resp);
    for cut in 0..=bytes.len() {
        views_agree(&bytes[..cut])?;
    }
    bytes.push(0);
    views_agree(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        request_views_agree(&bytes)?;
    }

    /// Arbitrary bytes behind the insert tag, so the insert parser (entry
    /// counts and lengths, routing headers, payload lengths) sees hostile
    /// input on every case.
    #[test]
    fn insert_parsers_agree_on_garbage(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..96),
        small in any::<bool>(),
    ) {
        if small {
            // Plausible little-endian counts and lengths.
            for b in bytes.iter_mut().skip(1).step_by(2) {
                *b = 0;
            }
        }
        bytes.insert(0, 0x01);
        request_views_agree(&bytes)?;
    }

    #[test]
    fn response_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Response::decode(&bytes);
        views_agree(&bytes)?;
    }

    /// Arbitrary bytes behind the two tags that carry candidate lists, so
    /// the list parser itself (counts, lengths, the payload ≤ header
    /// rule) sees hostile input on every case, not one case in 128.
    #[test]
    fn list_parsers_agree_on_garbage(
        tag in prop_oneof![Just(0x05u8), Just(0x07u8)],
        mut bytes in proptest::collection::vec(any::<u8>(), 0..96),
        small in any::<bool>(),
    ) {
        if small {
            // Plausible little-endian counts instead of ~2^31 ones.
            for b in bytes.iter_mut().skip(1).step_by(2) {
                *b = 0;
            }
        }
        bytes.insert(0, tag);
        views_agree(&bytes)?;
    }

    #[test]
    fn insert_request_round_trips(entries in proptest::collection::vec(arb_entry(), 0..8)) {
        let req = Request::Insert(entries);
        let mut bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
        for cut in 0..=bytes.len() {
            request_views_agree(&bytes[..cut])?;
        }
        bytes.push(0);
        request_views_agree(&bytes)?;
    }

    #[test]
    fn range_request_round_trips(ds in proptest::collection::vec(-1e6f64..1e6, 0..64),
                                 radius in 0.0f64..1e9) {
        let req = Request::Range { distances: ds, radius };
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn knn_request_round_trips(routing in arb_routing(), cand in any::<u32>()) {
        let req = Request::ApproxKnn { routing, cand_size: cand };
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn candidates_response_round_trips(
        cands in proptest::collection::vec(
            (any::<u64>(), 0.0f64..1e12, proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(id, lower_bound, payload)| Candidate { id, lower_bound, payload }),
            0..16,
        )
    ) {
        response_round_trips(&Response::Candidates(cands))?;
    }

    #[test]
    fn fetch_request_round_trips(ids in proptest::collection::vec(any::<u64>(), 0..64)) {
        let req = Request::FetchObjects { ids };
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn candidate_list_response_round_trips(
        headers in proptest::collection::vec(
            (any::<u64>(), 0.0f64..1e12)
                .prop_map(|(id, lower_bound)| CandidateHeader { id, lower_bound }),
            0..24,
        ),
        payload_seed in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..24),
    ) {
        // Inline prefix length clamped to the header count (wire invariant).
        let m = payload_seed.len().min(headers.len());
        let list = CandidateList { payloads: payload_seed[..m].to_vec(), headers };
        response_round_trips(&Response::CandidateList(list))?;
    }

    #[test]
    fn candidate_sets_response_round_trips(
        slots in proptest::collection::vec(
            prop_oneof![
                (proptest::collection::vec(
                    (any::<u64>(), 0.0f64..1e9)
                        .prop_map(|(id, lower_bound)| CandidateHeader { id, lower_bound }),
                    0..8,
                ), any::<bool>()).prop_map(|(headers, inline)| {
                    let payloads = if inline {
                        headers.iter().map(|h| vec![h.id as u8; 3]).collect()
                    } else {
                        Vec::new()
                    };
                    Ok(CandidateList { headers, payloads })
                }),
                ".{0,80}".prop_map(Err),
            ],
            0..8,
        )
    ) {
        response_round_trips(&Response::CandidateSets(slots))?;
    }

    #[test]
    fn objects_response_round_trips(
        objects in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
                .prop_map(|(id, payload)| FetchedObject { id, payload }),
            0..16,
        )
    ) {
        response_round_trips(&Response::Objects(objects))?;
    }

    #[test]
    fn error_response_round_trips(msg in ".{0,200}") {
        let resp = Response::Error(msg.clone());
        match Response::decode(&resp.encode()).unwrap() {
            Response::Error(m) => prop_assert_eq!(m, msg),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn batch_knn_request_round_trips(
        queries in proptest::collection::vec(
            (arb_routing(), any::<u32>())
                .prop_map(|(routing, cand_size)| simcloud_core::protocol::KnnQuery {
                    routing,
                    cand_size,
                }),
            0..8,
        )
    ) {
        let req = Request::BatchKnn(queries);
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn inserted_response_round_trips(n in any::<u32>()) {
        response_round_trips(&Response::Inserted(n))?;
    }

    #[test]
    fn info_round_trips(entries in any::<u64>(), leaves in any::<u32>(), depth in any::<u32>()) {
        // The Info request carries no fields; the response carries three.
        let req = Request::Info;
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        // ExportAll is field-free too; piggyback on the same case budget.
        let req = Request::ExportAll;
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        response_round_trips(&Response::Info { entries, leaves, depth })?;
    }

    #[test]
    fn insert_error_response_round_trips(inserted in any::<u32>(), message in ".{0,120}") {
        response_round_trips(&Response::InsertError { inserted, message })?;
    }

    /// Ops-surface wire v2: both parameterless requests and the two
    /// response shapes round-trip, and truncations fail cleanly.
    #[test]
    fn health_round_trips(status in any::<u8>(), entries in any::<u64>(),
                          shards in any::<u32>(), uptime_nanos in any::<u64>()) {
        let req = Request::Health;
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let req = Request::MetricsSnapshot;
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let resp = Response::Health {
            status,
            protocol: simcloud_core::protocol::PROTOCOL_VERSION,
            entries,
            shards,
            uptime_nanos,
        };
        response_round_trips(&resp)?;
        // Any truncation of the fixed-size health body must error, not panic.
        let bytes = Response::Health {
            status, protocol: 2, entries, shards, uptime_nanos,
        }.encode();
        for cut in 1..bytes.len() {
            prop_assert!(Response::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn metrics_snapshot_round_trips(text in ".{0,400}") {
        let resp = Response::MetricsSnapshot(text.clone());
        match Response::decode(&resp.encode()).unwrap() {
            Response::MetricsSnapshot(t) => prop_assert_eq!(t, text),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// A server fed arbitrary bytes must answer (with an error), not panic —
    /// the handler is exposed to the network.
    #[test]
    fn server_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use simcloud_mindex::{MIndexConfig, RoutingStrategy};
        use simcloud_storage::MemoryStore;
        use simcloud_transport::SharedRequestHandler;
        let server = simcloud_core::CloudServer::new(
            MIndexConfig {
                num_pivots: 4,
                max_level: 2,
                bucket_capacity: 8,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap();
        let resp = server.handle_shared(&bytes);
        // The response must itself be decodable.
        prop_assert!(Response::decode(&resp).is_ok());
    }
}
