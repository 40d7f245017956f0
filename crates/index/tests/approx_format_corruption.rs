//! Corruption matrix for the approximate-index format: a `.fzvp` file
//! damaged in **any** way — truncated at every byte boundary, any single
//! bit flipped, a stale version stamp, a wrong-dimension header — must
//! surface as a typed [`StoreError`], never a panic and never a silently
//! wrong index. The format checksums **every byte before the trailer**
//! (header included), so even the reserved header word is flip-protected.
//! Mutated images are decoded in memory (`decode(&[u8])`, which `load`
//! wraps) through `catch_unwind` so a panic shows up as its own failure,
//! not a test abort.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary};
use fuzzy_geom::Point;
use fuzzy_index::{VpTree, VpTreeConfig};
use fuzzy_store::format::{fnv1a, Encoder};
use fuzzy_store::StoreError;

fn summary(id: u64, x: f64, y: f64) -> ObjectSummary<2> {
    let pts = vec![Point::new([x, y]), Point::new([x + 0.4, y + 0.3]), Point::new([x - 0.2, y])];
    let mus = vec![1.0, 0.6, 0.3];
    ObjectSummary::from_object(&FuzzyObject::new(ObjectId(id), pts, mus).unwrap())
}

fn grid(n: u64) -> Vec<ObjectSummary<2>> {
    (0..n).map(|i| summary(i, (i % 8) as f64 * 2.0, (i / 8) as f64 * 2.0)).collect()
}

/// Build one real `.fzvp` file into a removable dir.
fn build_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fz-approx-corrupt-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ix.fzvp");
    VpTree::build(&L2, &grid(24), VpTreeConfig::default()).save(&path).unwrap();
    path
}

fn cleanup(path: &Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Decode a (possibly mutated) image in memory — the matrices never touch
/// the filesystem, so parallel tests cannot see each other's images. A
/// panic is converted into a test failure with the mutation's coordinates.
fn load_result(bytes: &[u8], what: &str) -> Result<(), StoreError> {
    match catch_unwind(AssertUnwindSafe(|| VpTree::<2>::decode(bytes, &L2).map(|_| ()))) {
        Err(_) => panic!("fzvp load panicked on {what}"),
        Ok(r) => r,
    }
}

fn load_must_error(bytes: &[u8], what: &str) -> StoreError {
    match load_result(bytes, what) {
        Ok(()) => panic!("fzvp load accepted {what}"),
        Err(e) => e,
    }
}

#[test]
fn truncation_at_every_byte_boundary_is_a_typed_error() {
    let path = build_fixture("trunc");
    let bytes = std::fs::read(&path).unwrap();
    assert!(load_result(&bytes, "the pristine image").is_ok());
    for len in 0..bytes.len() {
        let e = load_must_error(&bytes[..len], &format!("truncation to {len} bytes"));
        // Every truncation error must render (Display is part of the
        // typed contract — the CLI prints these verbatim).
        assert!(!e.to_string().is_empty());
    }
    cleanup(&path);
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let path = build_fixture("flip");
    let bytes = std::fs::read(&path).unwrap();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            load_must_error(&evil, &format!("bit {bit} of byte {byte} flipped"));
        }
    }
    cleanup(&path);
}

/// Rewrite the 12-byte header field region and re-checksum, so only the
/// targeted typed check can reject the image.
fn with_header(bytes: &[u8], version: u16, dims: u16) -> Vec<u8> {
    let mut out = Encoder::with_capacity(bytes.len());
    out.bytes(&bytes[..4]);
    out.u16(version);
    out.u16(dims);
    out.bytes(&bytes[8..bytes.len() - 12]);
    let sum = fnv1a(&out.as_bytes()[..bytes.len() - 12]);
    out.u64(sum);
    out.bytes(&bytes[bytes.len() - 4..]);
    out.into_bytes()
}

#[test]
fn stale_version_is_a_version_mismatch() {
    let path = build_fixture("stale");
    let bytes = std::fs::read(&path).unwrap();
    let stale = with_header(&bytes, 0, 2);
    let e = load_must_error(&stale, "a stale version stamp");
    assert!(
        matches!(e, StoreError::VersionMismatch { found: 0, expected: 1 }),
        "want VersionMismatch, got {e}"
    );
    let future = with_header(&bytes, 9, 2);
    let e = load_must_error(&future, "a future version stamp");
    assert!(matches!(e, StoreError::VersionMismatch { found: 9, expected: 1 }));
    cleanup(&path);
}

#[test]
fn wrong_dimension_header_is_a_dimension_mismatch() {
    let path = build_fixture("dims");
    let bytes = std::fs::read(&path).unwrap();
    for dims in [0_u16, 3, 7] {
        let evil = with_header(&bytes, 1, dims);
        let e = load_must_error(&evil, "a wrong-dimension header");
        assert!(
            matches!(e, StoreError::DimensionMismatch { found, expected: 2 } if found == dims),
            "want DimensionMismatch({dims}), got {e}"
        );
    }
    cleanup(&path);
}

#[test]
fn garbage_and_degenerate_images_are_rejected() {
    load_must_error(b"", "an empty image");
    load_must_error(b"FZVP", "a bare magic");
    for fill in [0x00u8, 0xFF, 0x5A] {
        load_must_error(&vec![fill; 256], &format!("256 bytes of 0x{fill:02x}"));
    }
}

#[test]
fn cross_format_confusion_is_rejected() {
    // The retired `.fzmt` M-tree file wore the same 16-byte header /
    // 12-byte trailer envelope, body checksum and all; feeding one to the
    // `.fzvp` loader must be a typed magic error, not a decode attempt.
    let body = [2u8, 0, 0, 0, b'l', b'2', 0, 0, 0, 0];
    let mut image = Encoder::with_capacity(16 + body.len() + 12);
    image.bytes(b"FZMT");
    image.u16(1);
    image.u16(2);
    image.u64(0);
    image.bytes(&body);
    image.u64(fnv1a(&body));
    image.bytes(b"FZMT");
    let e = load_must_error(image.as_bytes(), "an fzmt image");
    assert!(matches!(e, StoreError::Corrupt { .. }));
}

#[test]
fn metric_mismatch_on_open_is_typed() {
    // A pristine `.fzvp` built under l2 opened under a different metric
    // name must fail by name, not by structure.
    struct FakeMetric;
    impl fuzzy_core::metric::Metric<2> for FakeMetric {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
            a.dist(b)
        }
    }
    let path = build_fixture("metric");
    let out = catch_unwind(AssertUnwindSafe(|| VpTree::<2>::load(&path, &FakeMetric)));
    match out {
        Err(_) => panic!("load panicked on a metric mismatch"),
        Ok(Ok(_)) => panic!("load accepted a metric mismatch"),
        Ok(Err(e)) => assert!(e.to_string().contains("metric mismatch"), "got {e}"),
    }
    cleanup(&path);
}
