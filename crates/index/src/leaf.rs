//! Leaves as columns: [`LeafPage`], a leaf node held as the checked bytes
//! of its page, and [`LeafView`], one read of it.
//!
//! A leaf page stores its entries as the columnar summary block (normative
//! spec: `docs/FORMAT.md`): all ids, all point counts, then one contiguous
//! `n × f64` column per summary field. A page miss checks the block's
//! rectangles with one pass per column and keeps the page's bytes; every
//! later read borrows them. Nothing is rebuilt into per-entry structs: a
//! query reads the columns it needs ([`LeafView::column`]), and a caller
//! that wants whole summaries assembles them ([`LeafView::summary`],
//! [`LeafView::iter`]).

use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::{ConservativeLine, Mbr, Point};
use fuzzy_store::StoreError;

/// Bytes before a leaf page's summary block: kind byte, 3 reserved bytes,
/// entry count.
const BLOCK_AT: usize = 8;

/// Per-entry cost of the columnar leaf block: id (u64), point count (u32)
/// and `9·D` f64 column cells (support lo/hi, kernel lo/hi, upper and
/// lower conservative-line `m`/`t`, rep coordinate — per dimension).
pub const fn leaf_entry_len(d: usize) -> usize {
    8 + 4 + 9 * d * 8
}

/// One per-dimension `f64` column of a leaf's summary block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafField {
    /// Support MBR, lower bound.
    SupportLo,
    /// Support MBR, upper bound.
    SupportHi,
    /// Kernel MBR, lower bound.
    KernelLo,
    /// Kernel MBR, upper bound.
    KernelHi,
    /// Upper-side conservative line, slope `m`.
    UpperM,
    /// Upper-side conservative line, intercept `t`.
    UpperT,
    /// Lower-side conservative line, slope `m`.
    LowerM,
    /// Lower-side conservative line, intercept `t`.
    LowerT,
    /// Kernel representative point coordinate.
    Rep,
}

impl LeafField {
    /// The block's column number of this field for dimension `d`: support
    /// lo/hi, kernel lo/hi, upper m/t and lower m/t interleaved per
    /// dimension, then rep.
    const fn column(self, dims: usize, d: usize) -> usize {
        match self {
            Self::SupportLo => 2 * d,
            Self::SupportHi => 2 * d + 1,
            Self::KernelLo => 2 * dims + 2 * d,
            Self::KernelHi => 2 * dims + 2 * d + 1,
            Self::UpperM => 4 * dims + 2 * d,
            Self::UpperT => 4 * dims + 2 * d + 1,
            Self::LowerM => 6 * dims + 2 * d,
            Self::LowerT => 6 * dims + 2 * d + 1,
            Self::Rep => 8 * dims + d,
        }
    }
}

/// Encode `entries` as the columnar leaf block filling `block`: all ids,
/// all point counts, then one contiguous `n×f64` column per summary field
/// in [`LeafField::column`] order. Grouping by field keeps equal-typed values
/// adjacent on disk and makes every read a sequential column sweep.
pub(crate) fn encode_leaf_entries<const D: usize>(block: &mut [u8], entries: &[ObjectSummary<D>]) {
    let count = entries.len();
    let (ids, rest) = block.split_at_mut(8 * count);
    let (counts, cells) = rest.split_at_mut(4 * count);
    for (j, e) in entries.iter().enumerate() {
        ids[8 * j..8 * j + 8].copy_from_slice(&e.id.0.to_le_bytes());
        counts[4 * j..4 * j + 4].copy_from_slice(&e.point_count.to_le_bytes());
        let mut put = |field: LeafField, d: usize, v: f64| {
            let at = (field.column(D, d) * count + j) * 8;
            cells[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        for d in 0..D {
            put(LeafField::SupportLo, d, e.support_mbr.lo(d));
            put(LeafField::SupportHi, d, e.support_mbr.hi(d));
            put(LeafField::KernelLo, d, e.kernel_mbr.lo(d));
            put(LeafField::KernelHi, d, e.kernel_mbr.hi(d));
            put(LeafField::UpperM, d, e.upper_lines[d].m);
            put(LeafField::UpperT, d, e.upper_lines[d].t);
            put(LeafField::LowerM, d, e.lower_lines[d].m);
            put(LeafField::LowerT, d, e.lower_lines[d].t);
            put(LeafField::Rep, d, e.rep[d]);
        }
    }
}

/// A leaf node as the bytes of its page: what the buffer pool caches. The
/// block's rectangles were checked when the page was loaded (or encoded
/// from summaries that hold them), so a read only borrows.
#[derive(Debug)]
pub struct LeafPage<const D: usize> {
    /// The page: kind byte, entry count, summary block, and — for a page
    /// read from an index — its checksum.
    bytes: Box<[u8]>,
    count: usize,
}

impl<const D: usize> LeafPage<D> {
    /// A page read from an index whose checksum held and whose length fits
    /// `count` entries, after the block's `lo ≤ hi` checks: one pass over
    /// each support and kernel column pair.
    pub(crate) fn checked(page: Vec<u8>, count: usize) -> Result<Self, StoreError> {
        debug_assert!(page.len() >= BLOCK_AT + count * leaf_entry_len(D));
        let leaf = Self { bytes: page.into_boxed_slice(), count };
        let view = leaf.view();
        for (lo, hi) in [
            (LeafField::SupportLo, LeafField::SupportHi),
            (LeafField::KernelLo, LeafField::KernelHi),
        ] {
            for d in 0..D {
                if !view.column(lo, d).zip(view.column(hi, d)).all(|(lo, hi)| lo <= hi) {
                    return Err(StoreError::Corrupt {
                        reason: "inverted MBR in leaf summary block".into(),
                    });
                }
            }
        }
        Ok(leaf)
    }

    /// The leaf holding `entries`, in order, encoded as an index page
    /// stores them (without the checksum: these bytes are never read
    /// back from a medium). An overlay's delta leaves are built this way.
    pub fn encode(entries: &[ObjectSummary<D>]) -> Self {
        let count = entries.len();
        let mut bytes = vec![0u8; BLOCK_AT + count * leaf_entry_len(D)];
        bytes[4..8].copy_from_slice(&(count as u32).to_le_bytes());
        encode_leaf_entries(&mut bytes[BLOCK_AT..], entries);
        Self { bytes: bytes.into_boxed_slice(), count }
    }

    /// Read every entry.
    pub fn view(&self) -> LeafView<'_, D> {
        let block = &self.bytes[BLOCK_AT..BLOCK_AT + self.count * leaf_entry_len(D)];
        LeafView { block, count: self.count, live: None }
    }
}

/// One read of a leaf: its page's columns, and which entries the read
/// shows. Entry `j` — a *slot* — is the `j`-th of every column. A read of
/// an index leaf shows every slot; an overlay hides the entries it has
/// deleted behind a live mask, and every accessor here but
/// [`LeafView::slots`], [`LeafView::ids`] and [`LeafView::column`] skips
/// them.
#[derive(Clone, Copy, Debug)]
pub struct LeafView<'a, const D: usize> {
    /// The summary block: exactly `count` entries.
    block: &'a [u8],
    count: usize,
    /// Bit `j` set when slot `j` is live; `None` shows every slot.
    live: Option<&'a [u64]>,
}

impl<'a, const D: usize> LeafView<'a, D> {
    /// This read with slot `j` shown only where bit `j` of `live` is set.
    pub(crate) fn masked(self, live: Option<&'a [u64]>) -> Self {
        Self { live, ..self }
    }

    /// Number of slots the page stores, hidden ones included: the length
    /// of every column.
    pub fn slots(&self) -> usize {
        self.count
    }

    /// Is slot `j` shown by this read?
    #[inline]
    pub fn is_live(&self, j: usize) -> bool {
        match self.live {
            None => true,
            Some(words) => words[j / 64] >> (j % 64) & 1 == 1,
        }
    }

    /// Number of entries this read shows.
    pub fn len(&self) -> usize {
        match self.live {
            None => self.count,
            Some(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// True when this read shows no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of every slot, in slot order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ObjectId> + 'a {
        self.block[..8 * self.count]
            .chunks_exact(8)
            .map(|id| ObjectId(u64::from_le_bytes(id.try_into().expect("8-byte id"))))
    }

    /// `field` of dimension `d` for every slot, in slot order: one
    /// sequential sweep of the block's column. The column may sit on a
    /// 4-byte boundary (an odd count of u32 point counts precedes it);
    /// each cell is read as its little-endian bytes.
    #[inline]
    pub fn column(&self, field: LeafField, d: usize) -> impl ExactSizeIterator<Item = f64> + 'a {
        assert!(d < D, "dimension {d} of a {D}-D leaf");
        let at = 12 * self.count + 8 * self.count * field.column(D, d);
        self.block[at..at + 8 * self.count]
            .chunks_exact(8)
            .map(|cell| f64::from_le_bytes(cell.try_into().expect("8-byte cell")))
    }

    /// The summary slot `j` stores, assembled from its cells.
    pub fn summary(&self, j: usize) -> ObjectSummary<D> {
        assert!(j < self.count, "slot {j} of a {}-entry leaf", self.count);
        let cell = |field: LeafField, d: usize| {
            let at = 12 * self.count + 8 * (field.column(D, d) * self.count + j);
            f64::from_le_bytes(self.block[at..at + 8].try_into().expect("8-byte cell"))
        };
        let mbr = |lo: LeafField, hi: LeafField| {
            Mbr::new(std::array::from_fn(|d| cell(lo, d)), std::array::from_fn(|d| cell(hi, d)))
        };
        let line = |m: LeafField, t: LeafField, d: usize| ConservativeLine {
            m: cell(m, d),
            t: cell(t, d),
        };
        let at = 8 * self.count + 4 * j;
        ObjectSummary {
            id: ObjectId(u64::from_le_bytes(
                self.block[8 * j..8 * j + 8].try_into().expect("8-byte id"),
            )),
            support_mbr: mbr(LeafField::SupportLo, LeafField::SupportHi),
            kernel_mbr: mbr(LeafField::KernelLo, LeafField::KernelHi),
            upper_lines: std::array::from_fn(|d| line(LeafField::UpperM, LeafField::UpperT, d)),
            lower_lines: std::array::from_fn(|d| line(LeafField::LowerM, LeafField::LowerT, d)),
            rep: Point::new(std::array::from_fn(|d| cell(LeafField::Rep, d))),
            point_count: u32::from_le_bytes(
                self.block[at..at + 4].try_into().expect("4-byte count"),
            ),
        }
    }

    /// Every entry this read shows, assembled, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectSummary<D>> + 'a {
        let view = *self;
        (0..self.count).filter(move |&j| view.is_live(j)).map(move |j| view.summary(j))
    }
}
