//! `.fzrn` — persisted road networks for the graph-metric workload.
//!
//! A [`RoadNetwork`] is defined entirely by its vertex coordinates and
//! undirected edge list; the CSR adjacency, the all-pairs shortest-path
//! table and the coordinate lookup are derived. The file therefore stores
//! only the definition — deterministic inputs rebuild deterministic
//! derived state bit-for-bit on load (Dijkstra over f64-bit heap keys has
//! one canonical answer for a given input), which keeps the format small
//! and the loader honest: there is no way for a stale APSP table to
//! disagree with the edges that shipped next to it.
//!
//! Layout (all little-endian, `docs/FORMAT.md` conventions):
//!
//! ```text
//! magic "FZRN" | version u16 | dims u16 | reserved u64     (header, 16 B)
//! vertex count u64 | per vertex: D × f64
//! edge count u64   | per edge: u u32, v u32, w f64
//! fnv1a(body) u64  | magic "FZRN"                          (trailer, 12 B)
//! ```

use crate::atomic::write_atomic;
use crate::error::StoreError;
use crate::format::{fnv1a, Decoder, Encoder};
use fuzzy_core::RoadNetwork;
use fuzzy_geom::Point;
use std::fs;
use std::path::Path;

/// File magic of the persisted road network.
pub const ROADNET_MAGIC: [u8; 4] = *b"FZRN";
/// `.fzrn` format version understood by this build.
pub const ROADNET_VERSION: u16 = 1;

/// Persist `net` as a `.fzrn` file (see the module docs for the layout).
pub fn save_road_network<const D: usize>(
    net: &RoadNetwork<D>,
    path: impl AsRef<Path>,
) -> Result<(), StoreError> {
    let coords = net.coords();
    let edges = net.edges();
    let mut body = Encoder::with_capacity(16 + coords.len() * D * 8 + edges.len() * 16);
    body.u64(coords.len() as u64);
    for p in coords {
        for &c in p.coords() {
            body.f64(c);
        }
    }
    body.u64(edges.len() as u64);
    for &(u, v, w) in edges {
        body.u32(u);
        body.u32(v);
        body.f64(w);
    }
    let body = body.into_bytes();
    let mut out = Encoder::with_capacity(16 + body.len() + 12);
    out.bytes(&ROADNET_MAGIC);
    out.u16(ROADNET_VERSION);
    out.u16(D as u16);
    out.u64(0); // reserved
    out.bytes(&body);
    out.u64(fnv1a(&body));
    out.bytes(&ROADNET_MAGIC);
    write_atomic(path, |file| Ok(file.write_all(out.as_bytes())?))
}

/// Load a `.fzrn` file and rebuild the full [`RoadNetwork`] (CSR, APSP,
/// coordinate lookup) from the persisted definition. Verifies magic,
/// version, dimensionality and the body checksum; graph-validity errors
/// surface as [`StoreError::Corrupt`].
pub fn load_road_network<const D: usize>(
    path: impl AsRef<Path>,
) -> Result<RoadNetwork<D>, StoreError> {
    let bytes = fs::read(path)?;
    let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
    if bytes.len() < 16 + 12 {
        return Err(corrupt("fzrn file shorter than header + trailer"));
    }
    if bytes[..4] != ROADNET_MAGIC || bytes[bytes.len() - 4..] != ROADNET_MAGIC {
        return Err(corrupt("bad fzrn magic"));
    }
    let mut head = Decoder::new(&bytes[4..16]);
    let version = head.u16()?;
    if version != ROADNET_VERSION {
        return Err(StoreError::VersionMismatch { found: version, expected: ROADNET_VERSION });
    }
    let dims = head.u16()?;
    if dims as usize != D {
        return Err(StoreError::DimensionMismatch { found: dims, expected: D as u16 });
    }
    let body = &bytes[16..bytes.len() - 12];
    let mut tail = Decoder::new(&bytes[bytes.len() - 12..bytes.len() - 4]);
    if tail.u64()? != fnv1a(body) {
        return Err(corrupt("fzrn body checksum mismatch"));
    }
    let mut d = Decoder::new(body);
    let vertex_count = d.u64()? as usize;
    let mut coords = Vec::with_capacity(vertex_count);
    for _ in 0..vertex_count {
        let mut c = [0.0_f64; D];
        for v in c.iter_mut() {
            *v = d.f64()?;
        }
        coords.push(Point::new(c));
    }
    let edge_count = d.u64()? as usize;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let u = d.u32()?;
        let v = d.u32()?;
        let w = d.f64()?;
        edges.push((u, v, w));
    }
    if d.remaining() != 0 {
        return Err(corrupt("trailing bytes after fzrn edge list"));
    }
    RoadNetwork::new(coords, edges)
        .map_err(|e| StoreError::Corrupt { reason: format!("invalid road network: {e}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RoadNetwork<2> {
        let mut coords = Vec::new();
        let mut edges = Vec::new();
        for y in 0..4u32 {
            for x in 0..4u32 {
                coords.push(Point::new([x as f64, y as f64]));
                let i = y * 4 + x;
                if x > 0 {
                    edges.push((i - 1, i, 1.0));
                }
                if y > 0 {
                    edges.push((i - 4, i, 1.0));
                }
            }
        }
        RoadNetwork::new(coords, edges).unwrap()
    }

    #[test]
    fn roundtrip_rebuilds_identical_distances() {
        let net = grid();
        let dir = std::env::temp_dir().join("fzrn_roundtrip_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.fzrn");
        save_road_network(&net, &path).unwrap();
        let back: RoadNetwork<2> = load_road_network(&path).unwrap();
        assert_eq!(back.vertex_count(), net.vertex_count());
        assert_eq!(back.edges(), net.edges());
        for u in 0..16 {
            for v in 0..16 {
                assert_eq!(net.shortest_path(u, v).to_bits(), back.shortest_path(u, v).to_bits(),);
            }
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_is_rejected() {
        let net = grid();
        let dir = std::env::temp_dir().join("fzrn_corrupt_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.fzrn");
        save_road_network(&net, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_road_network::<2>(&path), Err(StoreError::Corrupt { .. })));
        fs::remove_file(&path).ok();
    }
}
