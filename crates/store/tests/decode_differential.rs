//! `decode_object` against a plain reading of a `.fzkn` v4 record, held
//! here as the oracle: the four-lane word FNV digest over the payload as
//! `docs/FORMAT.md` defines it, bulk conversion of the three sections, then
//! the layout checks one loop at a time in their order of precedence.
//! Every record, truncation, single-bit flip (with the checksum left stale
//! and re-stamped) and forged checksum-valid layout must give the same
//! `Result`: bit-identical columns, or the same error variant and message.

use fuzzy_core::{FuzzyObject, ModelError, ObjectId};
use fuzzy_geom::Point;
use fuzzy_store::format::{decode_object, encode_object, record_len};
use fuzzy_store::StoreError;

/// A decoded object's id and columns (µ and coordinates as bits).
type Columns = (u64, Vec<u32>, Vec<u64>, Vec<u64>);

/// The record digest by its definition: word `i` (the last zero-padded)
/// into lane `i mod 4`, lane `k` seeded with the length-mixed FNV basis
/// XOR `k`, the four lanes folded in order into a chain from that seed.
fn oracle_digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let seed = 0xcbf29ce484222325 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut lanes = [seed, seed ^ 1, seed ^ 2, seed ^ 3];
    for (i, word) in bytes.chunks(8).enumerate() {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        lanes[i % 4] = (lanes[i % 4] ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
    }
    lanes.iter().fold(seed, |h, &lane| (h ^ lane).wrapping_mul(PRIME))
}

/// The layout rules in their order of precedence, one loop each.
fn oracle_checks<const D: usize>(
    orig: &[u32],
    mus: &[f64],
    cols: &[f64],
) -> Result<(), ModelError> {
    let n = orig.len();
    if mus.len() != n {
        return Err(ModelError::LengthMismatch { points: n, memberships: mus.len() });
    }
    if n == 0 {
        return Err(ModelError::EmptyObject);
    }
    if cols.len() != D * n {
        return Err(ModelError::InvalidColumnarLayout {
            reason: "coordinate columns do not cover every point",
        });
    }
    let mut seen = vec![false; n];
    for &i in orig {
        if i as usize >= n || seen[i as usize] {
            return Err(ModelError::InvalidColumnarLayout {
                reason: "source indices are not a permutation",
            });
        }
        seen[i as usize] = true;
    }
    for j in 1..n {
        let ord = mus[j - 1].total_cmp(&mus[j]).then(orig[j].cmp(&orig[j - 1]));
        if ord == std::cmp::Ordering::Less {
            return Err(ModelError::InvalidColumnarLayout {
                reason: "memberships are not membership-descending",
            });
        }
    }
    for (j, (&mu, &i)) in mus.iter().zip(orig).enumerate() {
        if !(mu > 0.0 && mu <= 1.0) {
            return Err(ModelError::InvalidMembership { index: i as usize, value: mu });
        }
        if !(0..D).all(|d| cols[d * n + j].is_finite()) {
            return Err(ModelError::NonFiniteCoordinate { index: i as usize });
        }
    }
    if mus[0] != 1.0 {
        return Err(ModelError::EmptyKernel);
    }
    Ok(())
}

/// A plain reading of a v4 record: the digest, the length, the checks.
fn oracle<const D: usize>(bytes: &[u8]) -> Result<Columns, StoreError> {
    if bytes.len() < record_len(D, 0) {
        return Err(StoreError::Corrupt { reason: "record too short".into() });
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let computed = oracle_digest(payload);
    if stored != computed {
        return Err(StoreError::Corrupt {
            reason: format!("record checksum mismatch: stored {stored:x}, computed {computed:x}"),
        });
    }
    let id = ObjectId(u64::from_le_bytes(payload[..8].try_into().unwrap()));
    let n = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let expected = n * 4 + n * 8 + D * n * 8;
    let remaining = payload.len() - 16;
    if remaining != expected {
        return Err(StoreError::Corrupt {
            reason: format!(
                "record for {id} declares {n} points but carries {remaining} payload bytes (expected {expected})"
            ),
        });
    }
    let (perm, rest) = payload[16..].split_at(n * 4);
    let (mus, cols) = rest.split_at(n * 8);
    let f64s = |s: &[u8]| -> Vec<f64> {
        s.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    };
    let orig: Vec<u32> =
        perm.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    let (mus, cols) = (f64s(mus), f64s(cols));
    oracle_checks::<D>(&orig, &mus, &cols)?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    Ok((id.0, orig, bits(&mus), bits(&cols)))
}

fn columns<const D: usize>(obj: &FuzzyObject<D>) -> Columns {
    let pb = obj.by_membership();
    let cols = (0..D).flat_map(|d| pb.coord_column(d).iter().map(|x| x.to_bits())).collect();
    let mus = pb.memberships().iter().map(|x| x.to_bits()).collect();
    (obj.id().0, pb.source_indices().to_vec(), mus, cols)
}

/// Both decoders on `bytes`: the same columns, or the same error variant
/// and message.
fn same<const D: usize>(bytes: &[u8], what: &dyn Fn() -> String) -> Result<Columns, String> {
    let got = decode_object::<D>(bytes).map(|o| columns(&o)).map_err(|e| format!("{e:?}"));
    let want = oracle::<D>(bytes).map_err(|e| format!("{e:?}"));
    assert_eq!(got, want, "{}", what());
    got
}

/// Deterministic pseudo-random stream.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` points; memberships on a coarse grid so equal values (and with
/// them the `orig` tie-break) occur, one kernel point.
fn object<const D: usize>(n: usize, seed: u64) -> FuzzyObject<D> {
    let mut rnd = lcg(seed);
    let points = (0..n).map(|_| Point::new(std::array::from_fn(|_| rnd() * 20.0 - 10.0))).collect();
    let mut mus: Vec<f64> = (0..n).map(|_| ((rnd() * 8.0).floor() + 1.0) / 9.0).collect();
    mus[n / 2] = 1.0;
    FuzzyObject::new(ObjectId(seed * 1000 + n as u64), points, mus).unwrap()
}

const SIZES: [usize; 10] = [1, 2, 3, 7, 8, 63, 64, 65, 999, 1000];

/// Re-stamp the checksum after the payload was edited.
fn seal(bytes: &mut [u8]) {
    let at = bytes.len() - 8;
    let sum = oracle_digest(&bytes[..at]);
    bytes[at..].copy_from_slice(&sum.to_le_bytes());
}

fn sweep<const D: usize>() {
    for (k, &n) in SIZES.iter().enumerate() {
        let obj = object::<D>(n, 11 + k as u64);
        let bytes = encode_object(&obj);
        let label = || format!("D={D} n={n}");
        let decoded = same::<D>(&bytes, &label).expect("a clean record decodes");
        assert_eq!(decoded, columns(&obj), "{}: the columns round-trip", label());

        // Every byte and bit of small records. Of large ones, the bytes
        // around the section boundaries with every bit, and every 61st
        // byte with one bit. Tier-1 runs this suite in a debug build, where
        // records above 8 points get one bit a byte and large ones every
        // 997th byte; CI's "Decoders in release" step runs all of it.
        let debug = cfg!(debug_assertions);
        let stride = match (n > 65, debug) {
            (false, _) => 1,
            (true, false) => 61,
            (true, true) => 997,
        };
        let section_edges = [0, 8, 12, 16, 16 + 4 * n, 16 + 12 * n, 16 + (12 + 8 * D) * n];
        let edge = |at: usize| section_edges.iter().any(|&e| at + 8 >= e && at <= e + 8);
        let probe = |at: usize| at % stride == 0 || edge(at);
        let every_bit = |at: usize| n <= 8 || (!debug && (n <= 65 || edge(at)));
        let bits = |at: usize| -> Vec<u32> {
            if every_bit(at) {
                (0..8).collect()
            } else {
                vec![at as u32 % 8]
            }
        };
        for len in (0..bytes.len()).filter(|&l| probe(l)) {
            same::<D>(&bytes[..len], &|| format!("{} truncated to {len}", label()))
                .expect_err("a truncated record never decodes");
        }
        for at in (0..bytes.len()).filter(|&a| probe(a)) {
            for bit in bits(at) {
                let mut evil = bytes.clone();
                evil[at] ^= 1 << bit;
                let what = || format!("{} bit {bit} of byte {at}", label());
                same::<D>(&evil, &|| format!("{}, stale checksum", what()))
                    .expect_err("a flipped bit fails the checksum");
                if at < bytes.len() - 8 {
                    seal(&mut evil);
                    let _ = same::<D>(&evil, &|| format!("{}, re-stamped", what()));
                }
            }
        }
    }
}

#[test]
fn records_truncations_and_flips_match_the_oracle_in_2d() {
    sweep::<2>();
}

#[test]
fn records_truncations_and_flips_match_the_oracle_in_3d() {
    sweep::<3>();
}

/// A checksum-valid record of raw columns, whatever they hold.
fn forge<const D: usize>(id: u64, orig: &[u32], mus: &[u64], cols: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(orig.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    orig.iter().for_each(|i| out.extend_from_slice(&i.to_le_bytes()));
    mus.iter().chain(cols).for_each(|b| out.extend_from_slice(&b.to_le_bytes()));
    out.extend_from_slice(&[0; 8]);
    seal(&mut out);
    out
}

fn forged_layouts<const D: usize>() {
    let one = 1f64.to_bits();
    let specials = [
        ("+0.0", 0f64.to_bits()),
        ("-0.0", (-0f64).to_bits()),
        ("NaN", f64::NAN.to_bits()),
        ("-NaN", (-f64::NAN).to_bits()),
        ("NaN with payload", 0x7FF0_0000_0000_0001),
        ("-NaN with payload", 0xFFF8_0000_DEAD_BEEF),
        ("smallest subnormal", 1),
        ("largest subnormal", 0x000F_FFFF_FFFF_FFFF),
        ("1 + ulp", one + 1),
        ("1 - ulp", one - 1),
        ("-1", (-1f64).to_bits()),
        ("+inf", f64::INFINITY.to_bits()),
        ("-inf", f64::NEG_INFINITY.to_bits()),
    ];
    for n in [1usize, 2, 3, 8, 65] {
        let (id, orig, mus, cols) = columns(&object::<D>(n, 5 + n as u64));
        let label = |what: &str| format!("D={D} n={n}: {what}");
        for slot in [0, n / 2, n - 1] {
            for (name, bits) in specials {
                let mut m = mus.clone();
                m[slot] = bits;
                let _ = same::<D>(&forge::<D>(id, &orig, &m, &cols), &|| {
                    label(&format!("µ {name} at slot {slot}"))
                });
            }
            for column in 0..D {
                for (name, bits) in &specials[2..] {
                    let mut c = cols.clone();
                    c[column * n + slot] = *bits;
                    let _ = same::<D>(&forge::<D>(id, &orig, &mus, &c), &|| {
                        label(&format!("coordinate {column} {name} at slot {slot}"))
                    });
                }
            }
            let mut o = orig.clone();
            o[slot] = n as u32;
            same::<D>(&forge::<D>(id, &o, &mus, &cols), &|| label("orig = n"))
                .expect_err("an index out of range");
            o[slot] = u32::MAX;
            same::<D>(&forge::<D>(id, &o, &mus, &cols), &|| label("orig = u32::MAX"))
                .expect_err("an index out of range");
            if n > 1 {
                let mut o = orig.clone();
                o[slot] = orig[(slot + 1) % n];
                same::<D>(&forge::<D>(id, &o, &mus, &cols), &|| label("a duplicated index"))
                    .expect_err("not a permutation");
            }
        }
        // `n - 1` replaced by `n`: the only index out of range, and no
        // index is seen twice once it is clamped into range.
        let mut o = orig.clone();
        let last = o.iter().position(|&i| i as usize == n - 1).expect("a permutation");
        o[last] = n as u32;
        same::<D>(&forge::<D>(id, &o, &mus, &cols), &|| label("n - 1 replaced by n"))
            .expect_err("an index out of range");
        // Equal memberships with the source indices swapped, at every
        // pair of neighbours that tie.
        for j in 1..n {
            if mus[j - 1] == mus[j] {
                let mut o = orig.clone();
                o.swap(j - 1, j);
                same::<D>(&forge::<D>(id, &o, &mus, &cols), &|| label(&format!("tie at {j}")))
                    .expect_err("the tie-break is broken");
            }
        }
        // A bad membership that keeps the order (+0.0 in the last slot)
        // and a non-finite coordinate: the first slot either names wins,
        // the membership when they name the same slot.
        if n > 2 {
            let (mut m, mut c) = (mus.clone(), cols.clone());
            m[n - 1] = 0f64.to_bits();
            c[(D - 1) * n + 1] = f64::INFINITY.to_bits();
            same::<D>(&forge::<D>(id, &orig, &m, &c), &|| label("coordinate first"))
                .expect_err("slot 1's coordinate");
            c[(D - 1) * n + 1] = cols[(D - 1) * n + 1];
            c[(D - 1) * n + n - 1] = f64::INFINITY.to_bits();
            same::<D>(&forge::<D>(id, &orig, &m, &c), &|| label("one slot, both bad"))
                .expect_err("the last slot's membership");
        }
    }
}

#[test]
fn forged_layouts_match_the_oracle() {
    forged_layouts::<2>();
    forged_layouts::<3>();
}

/// The ties the order check must take in `total_cmp`'s sense: -0.0 sorts
/// below +0.0, and NaNs by their sign and payload.
#[test]
fn total_order_edges_match_the_oracle() {
    let forge2 = |orig: &[u32], mus: &[f64]| {
        let cols = vec![0f64.to_bits(); 2 * orig.len()];
        forge::<2>(3, orig, &mus.iter().map(|m| m.to_bits()).collect::<Vec<_>>(), &cols)
    };
    let nan_hi = f64::from_bits(0x7FF8_0000_0000_0002);
    let nan_lo = f64::from_bits(0x7FF8_0000_0000_0001);
    for (orig, mus) in [
        (vec![0, 1, 2], vec![1.0, 0.0, -0.0]),
        (vec![0, 1, 2], vec![1.0, -0.0, 0.0]),
        (vec![0, 1, 2], vec![nan_hi, nan_lo, 1.0]),
        (vec![0, 1, 2], vec![nan_lo, nan_hi, 1.0]),
        (vec![0, 1, 2], vec![1.0, -f64::NAN, f64::NEG_INFINITY]),
        (vec![0, 1, 2], vec![1.0, f64::NEG_INFINITY, -f64::NAN]),
        (vec![0, 2, 1], vec![1.0, 0.5, 0.5]),
        (vec![0, 1, 2], vec![1.0, 0.5, 0.5]),
        (vec![1, 0, 2], vec![1.0, 1.0, 0.5]),
    ] {
        let _ = same::<2>(&forge2(&orig, &mus), &|| format!("{orig:?} {mus:?}"));
    }
}
