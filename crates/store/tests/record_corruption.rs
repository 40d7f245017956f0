//! The `.fzkn` v3 cases particular to columnar object records and the
//! store file around them: layout contracts forged behind a valid
//! checksum, summaries that break their invariants, stale format versions
//! and hostile counts must surface as a typed [`StoreError`], never a
//! panic and never a silently wrong object. A damaged store opens the same
//! way from a file and from an in-memory image of the same bytes. Every
//! truncation, bit flip and length or offset field of a record and of a
//! store runs in the root `hostile_bytes` harness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use fuzzy_core::{FuzzyObject, ObjectId};
use fuzzy_geom::Point;
use fuzzy_store::format::{decode_object, fnv1a, record_len, Encoder, TRAILER_LEN, VERSION};
use fuzzy_store::{FileStore, FileStoreWriter, ObjectStore, StoreError};

fn sample() -> FuzzyObject<2> {
    let pts = vec![
        Point::xy(1.5, -2.25),
        Point::xy(0.0, 0.125),
        Point::xy(-3.5, 7.0),
        Point::xy(2.0, 2.0),
        Point::xy(-1.0, -1.0),
    ];
    FuzzyObject::new(ObjectId(42), pts, vec![1.0, 0.5, 0.5, 0.25, 0.125]).unwrap()
}

/// Decode a mutated record; a panic is converted into a test failure
/// carrying the mutation's coordinates.
fn decode_must_error(bytes: &[u8], what: &str) -> StoreError {
    let out = catch_unwind(AssertUnwindSafe(|| decode_object::<2>(bytes)));
    match out {
        Err(_) => panic!("decode panicked on {what}"),
        Ok(Ok(_)) => panic!("decode accepted {what}"),
        Ok(Err(e)) => e,
    }
}

/// Forge records whose checksum is valid but whose **columnar layout**
/// lies — the second line of defense behind the checksum. Each must land
/// as `StoreError::Model`, not decode into a silently wrong prefix.
#[test]
fn forged_layout_violations_are_model_errors() {
    let seal = |mut e: Encoder| -> Vec<u8> {
        let sum = fnv1a(e.as_bytes());
        e.u64(sum);
        e.into_bytes()
    };
    // n = 2 skeleton: id, n, flags, perm, µ (desc), cols x then y.
    let forge = |perm: [u32; 2], mus: [f64; 2], cols: [f64; 4]| -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(7);
        e.u32(2);
        e.u32(0);
        for p in perm {
            e.u32(p);
        }
        for m in mus {
            e.f64(m);
        }
        for c in cols {
            e.f64(c);
        }
        seal(e)
    };

    for (bytes, what) in [
        (forge([0, 0], [1.0, 0.5], [0.0; 4]), "a duplicate permutation slot"),
        (forge([0, 9], [1.0, 0.5], [0.0; 4]), "an out-of-range source index"),
        (forge([0, 1], [0.5, 1.0], [0.0; 4]), "ascending memberships"),
        (forge([1, 0], [1.0, 1.0], [0.0; 4]), "a wrong tie-break order"),
        (forge([0, 1], [1.0, 0.0], [0.0; 4]), "a zero membership"),
        (forge([0, 1], [1.0, 1.5], [0.0; 4]), "a membership above 1"),
        (forge([0, 1], [0.9, 0.5], [0.0; 4]), "a missing kernel"),
        (forge([0, 1], [1.0, 0.5], [f64::NAN, 0.0, 0.0, 0.0]), "a NaN coordinate"),
    ] {
        let e = decode_must_error(&bytes, what);
        assert!(matches!(e, StoreError::Model(_)), "{what} gave {e}");
    }

    // Declared point count disagreeing with the payload size.
    let mut e = Encoder::new();
    e.u64(7);
    e.u32(3); // claims 3 points, carries 2
    e.u32(0);
    for p in [0u32, 1] {
        e.u32(p);
    }
    for m in [1.0, 0.5] {
        e.f64(m);
    }
    for c in [0.0; 4] {
        e.f64(c);
    }
    let bytes = seal(e);
    let err = decode_must_error(&bytes, "a lying point count");
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fz-v3-corrupt-{}-{name}", std::process::id()))
}

/// Open `bytes` as a file at `path` and as an in-memory image, each under
/// `catch_unwind`: neither may panic, and the two sources must agree — a
/// store each, or the same typed error.
fn open_both(path: &Path, bytes: &[u8], what: &str) -> Result<FileStore<2>, StoreError> {
    std::fs::write(path, bytes).unwrap();
    let file = catch_unwind(AssertUnwindSafe(|| FileStore::<2>::open(path)));
    let image = catch_unwind(AssertUnwindSafe(|| FileStore::<2>::from_image(bytes.to_vec())));
    match (file, image) {
        (Err(_), _) | (_, Err(_)) => panic!("open panicked on {what}"),
        (Ok(Ok(store)), Ok(Ok(_))) => Ok(store),
        (Ok(Err(a)), Ok(Err(b))) => {
            assert_eq!(a.to_string(), b.to_string(), "{what}: file and image disagree");
            Err(a)
        }
        (Ok(a), Ok(b)) => panic!("{what}: file and image disagree: {:?} vs {:?}", a.err(), b.err()),
    }
}

/// The summary section carries no checksum, and the search prunes on its
/// boxes: a summary that breaks an invariant — here a support box whose
/// upper x bound a damaged bit pulled below the object's kernel point —
/// must stop the open with a `Corrupt` naming the object, not open into
/// an index that can prune a true neighbour.
#[test]
fn summaries_breaking_their_invariants_never_open() {
    let path = tmp("summary");
    let mut w = FileStoreWriter::<2>::create(&path).unwrap();
    w.append(&sample()).unwrap();
    drop(w.finish().unwrap());
    let pristine = std::fs::read(&path).unwrap();
    let trailer = pristine.len() - TRAILER_LEN;
    let summary =
        u64::from_le_bytes(pristine[trailer..trailer + 8].try_into().unwrap()) as usize + 8;
    // id u64 | point_count u32 | flags u32, then f64s: support lo/hi per
    // dimension, kernel lo/hi per dimension, upper m/t, lower m/t, rep.
    let cell = |k: usize| summary + 16 + 8 * k;
    let read = |k: usize| f64::from_le_bytes(pristine[cell(k)..cell(k) + 8].try_into().unwrap());
    let (support_lo_x, kernel_hi_x) = (read(0), read(5));
    let cases: [(&str, usize, f64, &str); 5] = [
        ("support hi x pulled below the kernel", 1, support_lo_x, "kernel box leaves"),
        ("support lo x above its hi", 0, read(1) + 1.0, "inverted"),
        ("a NaN line slope", 8, f64::NAN, "not finite"),
        ("an infinite rep", 16, f64::INFINITY, "not finite"),
        ("rep beyond the kernel", 16, kernel_hi_x + 0.5, "representative"),
    ];
    for (what, k, value, says) in cases {
        let mut evil = pristine.clone();
        evil[cell(k)..cell(k) + 8].copy_from_slice(&value.to_le_bytes());
        match open_both(&path, &evil, what) {
            Ok(_) => panic!("open accepted {what}"),
            Err(StoreError::Corrupt { reason }) => {
                assert!(reason.contains("#42") && reason.contains(says), "{what}: {reason}")
            }
            Err(e) => panic!("{what} gave {e}"),
        }
    }
    let mut evil = pristine.clone();
    evil[summary + 8..summary + 12].copy_from_slice(&0u32.to_le_bytes());
    let err = open_both(&path, &evil, "a summary of no points").unwrap_err();
    assert!(err.to_string().contains("no points"), "{err}");

    assert!(open_both(&path, &pristine, "the fixture").is_ok(), "the fixture itself opens");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stale_version_files_are_version_mismatch() {
    let path = tmp("stale");
    let mut w = FileStoreWriter::<2>::create(&path).unwrap();
    w.append(&sample()).unwrap();
    let store = w.finish().unwrap();
    drop(store);

    // Patch the header back to the previous format version: the open
    // must refuse with the typed mismatch, not misparse v3 records with
    // v2 expectations.
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
    let stale = VERSION - 1;
    bytes[4..6].copy_from_slice(&stale.to_le_bytes());
    match open_both(&path, &bytes, "a stale version").unwrap_err() {
        StoreError::VersionMismatch { found, expected } => {
            assert_eq!(found, stale);
            assert_eq!(expected, VERSION);
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn flipped_record_bytes_fail_the_probe_not_the_open() {
    let path = tmp("probe");
    let mut w = FileStoreWriter::<2>::create(&path).unwrap();
    w.append(&sample()).unwrap();
    let store = w.finish().unwrap();
    drop(store);

    // Damage one byte inside the record region. The open (which only
    // touches header, summaries, index, trailer) still succeeds; the
    // probe must fail with a checksum error.
    let mut bytes = std::fs::read(&path).unwrap();
    let record_mid = 16 + record_len(2, 5) / 2;
    bytes[record_mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let store = FileStore::<2>::open(&path).unwrap();
    let err = store.probe(ObjectId(42)).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// The file *around* the records: the three counts (trailer, summary
/// section, index section) agreeing on a number no file could hold must
/// not size a table or wrap a check into passing. (Each offset, count and
/// index-entry field set to a boundary of the file or of `u64` is the
/// harness's `fzkn_fields`.)
#[test]
fn hostile_trailer_and_index_fields_never_open() {
    let path = tmp("matrix");
    let mut w = FileStoreWriter::<2>::create(&path).unwrap();
    for id in [42u64, 43, 44] {
        let a = sample();
        w.append(
            &FuzzyObject::new(ObjectId(id), a.points().to_vec(), a.memberships().to_vec()).unwrap(),
        )
        .unwrap();
    }
    drop(w.finish().unwrap());
    let pristine = std::fs::read(&path).unwrap();
    let word = |at: usize| u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap());
    let trailer = pristine.len() - TRAILER_LEN;
    let (summary_off, index_off) = (word(trailer) as usize, word(trailer + 8) as usize);

    let mut evil = pristine.clone();
    for at in [trailer + 16, summary_off, index_off] {
        evil[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
    }
    match open_both(&path, &evil, "equal counts of 2^61") {
        Ok(_) => panic!("open accepted equal counts of 2^61"),
        Err(e) => assert!(matches!(e, StoreError::Corrupt { .. }), "{e}"),
    }

    assert_eq!(open_both(&path, &pristine, "the fixture").unwrap().len(), 3, "the fixture opens");
    std::fs::remove_file(&path).unwrap();
}
