//! The FZQP cases particular to frames: a damaged magic, version or
//! length, unknown types and tags, trailing payload bytes and lying counts
//! must surface as a typed [`WireError`] — never a panic, a hang, or an
//! over-allocation — and undamaged frames must round-trip bit-exactly
//! (property-tested below). Every truncation, bit flip and length field of
//! a frame runs in the root `hostile_bytes` harness.

use fuzzy_core::ObjectId;
use fuzzy_query::{DistBound, Interval, IntervalSet, Neighbor, RknnAlgorithm, RknnItem};
use fuzzy_server::protocol::{
    decode_frame, encode_frame, read_frame, HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN, T_INFO,
};
use fuzzy_server::{QuerySource, Request, Response, WireError, WireStats, WireVariant};
use fuzzy_store::format::DecodeError;
use proptest::prelude::*;
use std::io::Cursor;

fn sample_request() -> Request {
    Request::Aknn {
        query: QuerySource::Inline {
            id: ObjectId(42),
            rows: vec![([1.0, 2.0], 0.5), ([3.0, -4.0], 0.25)],
        },
        k: 10,
        alpha: 0.5,
        variant: WireVariant::LbLpUb,
        deadline_ms: 250,
    }
}

fn sample_frame() -> Vec<u8> {
    sample_request().encode(7)
}

fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let (frame, consumed) = decode_frame(bytes)?;
    assert_eq!(consumed, bytes.len());
    Request::decode(frame.frame_type, &frame.payload)
}

#[test]
fn roundtrip_of_the_sample_request() {
    assert_eq!(decode_request(&sample_frame()).unwrap(), sample_request());
}

#[test]
fn bad_magic_in_any_magic_byte() {
    for i in 0..4 {
        let mut frame = sample_frame();
        frame[i] ^= 0xFF;
        assert!(matches!(decode_frame(&frame), Err(WireError::BadMagic)), "corrupt magic byte {i}");
    }
}

#[test]
fn version_mismatch_reports_the_found_version() {
    for found in [0u16, 2, 0x7FFF, 0xFFFF] {
        let mut frame = sample_frame();
        frame[4..6].copy_from_slice(&found.to_le_bytes());
        match decode_frame(&frame) {
            Err(WireError::BadVersion { found: f }) => assert_eq!(f, found),
            other => panic!("version {found}: got {other:?}"),
        }
    }
}

#[test]
fn hostile_length_is_rejected_before_allocation() {
    for len in [MAX_PAYLOAD + 1, u32::MAX] {
        let mut frame = sample_frame();
        frame[16..20].copy_from_slice(&len.to_le_bytes());
        match decode_frame(&frame) {
            Err(WireError::Oversize { len: l }) => assert_eq!(l, len),
            other => panic!("length {len}: got {other:?}"),
        }
        // The streaming reader must also refuse without trying to read
        // (and so allocate) the claimed payload.
        let mut cursor = Cursor::new(frame.clone());
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Oversize { .. })));
    }
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // A structurally valid INFO frame whose payload has one stray byte:
    // the frame checksums fine, but the payload decoder must notice.
    let frame = encode_frame(T_INFO, 1, &[0xAB]);
    let (raw, _) = decode_frame(&frame).unwrap();
    match Request::decode(raw.frame_type, &raw.payload) {
        Err(WireError::Malformed { what }) => assert_eq!(what, "trailing bytes in payload"),
        other => panic!("got {other:?}"),
    }
}

/// Each codec error reads as the `Malformed` text frames always carried.
#[test]
fn decode_errors_keep_their_wire_text() {
    let end = |need, at| DecodeError::EndOfData { need, at, have: 16 };
    for (error, what) in [
        (end(9, 8), "payload too short"),
        (end(usize::MAX - 4, 8), "length overflow"),
        (DecodeError::Count { count: 3, left: 8 }, "count exceeds payload"),
        (DecodeError::Trailing { left: 1 }, "trailing bytes in payload"),
        (DecodeError::NotUtf8, "string is not UTF-8"),
    ] {
        match WireError::from(error) {
            WireError::Malformed { what: got } => assert_eq!(got, what, "{error:?}"),
            other => panic!("{error:?} became {other:?}"),
        }
    }
    // A SWAP path that is not UTF-8 is refused by that text.
    let frame = encode_frame(fuzzy_server::protocol::T_SWAP, 1, &[2, 0, 0, 0, 0xC3, 0x28]);
    let (raw, _) = decode_frame(&frame).unwrap();
    assert!(matches!(
        Request::decode(raw.frame_type, &raw.payload),
        Err(WireError::Malformed { what: "string is not UTF-8" })
    ));
}

#[test]
fn unknown_frame_type_and_tags_are_typed() {
    // Unknown frame type (structurally valid frame).
    let frame = encode_frame(0x42, 1, &[]);
    let (raw, _) = decode_frame(&frame).unwrap();
    assert!(matches!(
        Request::decode(raw.frame_type, &raw.payload),
        Err(WireError::UnknownType { found: 0x42 })
    ));
    assert!(matches!(
        Response::decode(raw.frame_type, &raw.payload),
        Err(WireError::UnknownType { found: 0x42 })
    ));

    // Unknown query-source tag / variant / algorithm inside an otherwise
    // valid AKNN or RKNN payload.
    let reencode = |mutate: fn(&mut Vec<u8>)| {
        let mut payload = sample_request().payload();
        mutate(&mut payload);
        Request::decode(fuzzy_server::protocol::T_AKNN, &payload)
    };
    assert!(matches!(
        reencode(|p| p[0] = 2),
        Err(WireError::Malformed { what: "unknown query-source tag" })
    ));
    let variant_offset = sample_request().payload().len() - 5; // variant, then deadline u32
    assert!(
        matches!(
            {
                let mut p = sample_request().payload();
                p[variant_offset] = 9;
                Request::decode(fuzzy_server::protocol::T_AKNN, &p)
            },
            Err(WireError::Malformed { what: "unknown variant" })
        ),
        "variant byte out of range"
    );

    let rknn = Request::Rknn {
        query: QuerySource::Stored(ObjectId(3)),
        k: 2,
        alpha_start: 0.2,
        alpha_end: 0.8,
        algo: RknnAlgorithm::Rss,
        variant: WireVariant::Basic,
        deadline_ms: 0,
    };
    let mut p = rknn.payload();
    let algo_offset = p.len() - 6; // algo, variant, deadline u32
    p[algo_offset] = 7;
    assert!(matches!(
        Request::decode(fuzzy_server::protocol::T_RKNN, &p),
        Err(WireError::Malformed { what: "unknown algorithm" })
    ));
}

#[test]
fn corrupt_counts_cannot_drive_allocation() {
    // An inline query whose row count claims far more rows than the
    // payload holds: the decoder must refuse before reserving.
    let request = Request::Aknn {
        query: QuerySource::Inline { id: ObjectId(1), rows: vec![([0.0, 0.0], 1.0)] },
        k: 1,
        alpha: 0.5,
        variant: WireVariant::Basic,
        deadline_ms: 0,
    };
    let mut payload = request.payload();
    // Row count sits after tag (1) + id (8).
    payload[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::decode(fuzzy_server::protocol::T_AKNN, &payload),
        Err(WireError::Malformed { what: "count exceeds payload" })
    ));
}

#[test]
fn unknown_bound_tag_and_error_code_in_responses() {
    let response = Response::Aknn {
        neighbors: vec![Neighbor { id: ObjectId(1), dist: DistBound::Exact(1.5) }],
        stats: WireStats::default(),
    };
    let mut payload = response.payload();
    payload[12] = 2; // bound tag after count u32 + id u64
    assert!(matches!(
        Response::decode(fuzzy_server::protocol::T_AKNN_R, &payload),
        Err(WireError::Malformed { what: "unknown bound tag" })
    ));

    let error = Response::Error { code: fuzzy_server::ErrorCode::Malformed, message: "x".into() };
    let mut payload = error.payload();
    payload[0..2].copy_from_slice(&999u16.to_le_bytes());
    assert!(matches!(
        Response::decode(fuzzy_server::protocol::T_ERROR, &payload),
        Err(WireError::Malformed { what: "unknown error code" })
    ));
}

#[test]
fn stream_reader_decodes_back_to_back_frames() {
    let mut bytes = sample_request().encode(1);
    bytes.extend_from_slice(&Request::Info.encode(2));
    let mut cursor = Cursor::new(bytes);
    let first = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(first.request_id, 1);
    let second = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(second.request_id, 2);
    assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF between frames");
}

// ---------------------------------------------------------------------
// Property tests: encode → decode identity for arbitrary messages.
//
// The stub proptest has no enum combinators, so both generators expand a
// single u64 seed through a splitmix64 stream into an arbitrary message —
// every branch and field still varies per case.

struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite f64 (NaN would break the `==` identity check).
    fn f64(&mut self) -> f64 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e9
    }

    fn query(&mut self) -> QuerySource {
        if self.below(2) == 0 {
            QuerySource::Stored(ObjectId(self.next()))
        } else {
            let rows = (0..self.below(6)).map(|_| ([self.f64(), self.f64()], self.f64())).collect();
            QuerySource::Inline { id: ObjectId(self.next()), rows }
        }
    }

    fn variant(&mut self) -> WireVariant {
        match self.below(4) {
            0 => WireVariant::Basic,
            1 => WireVariant::Lb,
            2 => WireVariant::LbLp,
            _ => WireVariant::LbLpUb,
        }
    }

    fn stats(&mut self) -> WireStats {
        WireStats {
            object_accesses: self.next(),
            node_accesses: self.next(),
            node_disk_reads: self.next(),
            distance_evals: self.next(),
            profile_computations: self.next(),
            bound_evals: self.next(),
            aknn_calls: self.next(),
            candidates: self.next(),
            wall_nanos: self.next(),
        }
    }

    fn request(&mut self) -> Request {
        match self.below(6) {
            0 => Request::Aknn {
                query: self.query(),
                k: self.next() as u32,
                alpha: self.f64(),
                variant: self.variant(),
                deadline_ms: self.next() as u32,
            },
            1 => Request::Rknn {
                query: self.query(),
                k: self.next() as u32,
                alpha_start: self.f64(),
                alpha_end: self.f64(),
                algo: match self.below(4) {
                    0 => RknnAlgorithm::Naive,
                    1 => RknnAlgorithm::Basic,
                    2 => RknnAlgorithm::Rss,
                    _ => RknnAlgorithm::RssIcr,
                },
                variant: self.variant(),
                deadline_ms: self.next() as u32,
            },
            2 => Request::Info,
            3 => Request::Stats,
            4 => Request::Swap {
                index_path: String::from_utf8(
                    (0..self.below(40)).map(|_| b'a' + (self.below(26) as u8)).collect(),
                )
                .expect("ascii"),
            },
            _ => Request::Shutdown,
        }
    }

    fn response(&mut self) -> Response {
        match self.below(8) {
            0 => Response::Aknn {
                neighbors: (0..self.below(8))
                    .map(|_| Neighbor {
                        id: ObjectId(self.next()),
                        dist: if self.below(2) == 0 {
                            DistBound::Exact(self.f64())
                        } else {
                            let lo = self.f64().abs();
                            DistBound::Bounded { lo, hi: lo + self.f64().abs() }
                        },
                    })
                    .collect(),
                stats: self.stats(),
            },
            1 => Response::Rknn {
                items: (0..self.below(6))
                    .map(|_| {
                        let mut range = IntervalSet::empty();
                        // Disjoint, ascending intervals inside (0, 1]
                        // survive IntervalSet's normalisation untouched.
                        let mut lo = 0.01;
                        for _ in 0..self.below(3) {
                            let hi = lo + 0.05;
                            range.push(Interval::new(lo, self.below(2) == 0, hi, true));
                            lo = hi + 0.05;
                        }
                        RknnItem { id: ObjectId(self.next()), range }
                    })
                    .collect(),
                stats: self.stats(),
            },
            2 => Response::Info {
                objects: self.next(),
                epoch: self.next(),
                workers: self.next() as u16,
            },
            3 => Response::Stats {
                served: self.next(),
                busy: self.next(),
                deadline_exceeded: self.next(),
                errors: self.next(),
                swaps: self.next(),
            },
            4 => Response::Swapped { epoch: self.next(), objects: self.next() },
            5 => Response::ShutdownAck,
            6 => Response::Error {
                code: fuzzy_server::ErrorCode::from_u16((self.below(9) + 1) as u16)
                    .expect("codes 1..=9"),
                message: "injected".into(),
            },
            _ => Response::Busy,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_requests_roundtrip(seed in any::<u64>(), request_id in any::<u64>()) {
        let request = Mix(seed).request();
        let bytes = request.encode(request_id);
        let (frame, consumed) = decode_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(frame.request_id, request_id);
        prop_assert_eq!(Request::decode(frame.frame_type, &frame.payload).unwrap(), request);
    }

    #[test]
    fn arbitrary_responses_roundtrip(seed in any::<u64>(), request_id in any::<u64>()) {
        let response = Mix(seed).response();
        let bytes = response.encode(request_id);
        let (frame, consumed) = decode_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(frame.request_id, request_id);
        prop_assert_eq!(Response::decode(frame.frame_type, &frame.payload).unwrap(), response);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(seed in any::<u64>(), len in 0usize..200) {
        let mut mix = Mix(seed);
        let bytes: Vec<u8> = (0..len).map(|_| mix.next() as u8).collect();
        let _ = decode_frame(&bytes);
        let _ = read_frame(&mut Cursor::new(bytes.clone()));
        // Also through a frame whose envelope is valid but whose payload
        // is noise — exercises every payload decoder branch.
        for frame_type in [0x01, 0x02, 0x05, 0x81, 0x82, 0x83, 0x84, 0xE0] {
            let framed = encode_frame(frame_type, 1, &bytes);
            let (raw, _) = decode_frame(&framed).expect("envelope is valid");
            let _ = Request::decode(raw.frame_type, &raw.payload);
            let _ = Response::decode(raw.frame_type, &raw.payload);
        }
    }
}

#[test]
fn frame_sizes_match_the_spec() {
    // Pin the byte-level constants PROTOCOL.md documents.
    let frame = Request::Info.encode(0);
    assert_eq!(frame.len(), HEADER_LEN + TRAILER_LEN);
    assert_eq!(&frame[..4], b"FZQP");
    assert_eq!(frame[4..6], 1u16.to_le_bytes());
    assert_eq!(frame[6], T_INFO);
}
