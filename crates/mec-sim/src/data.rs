//! Data-sharing model: the distributed datasets that make this a
//! *Data-Shared* MEC system.
//!
//! Section IV of the paper works over a universe `D = {d₁, …, d_M}` of
//! data items (or blocks, after the caching granularity of \[19\]), with
//! each mobile device `i` owning a subset `D_i`; monitoring regions
//! overlap, so the `D_i` are generally *not* disjoint. [`ItemSet`] is a
//! compact bitset over item indices, and [`DataUniverse`] carries item
//! sizes plus per-device ownership.

use crate::error::MecError;
use crate::topology::DeviceId;
use crate::units::Bytes;
use std::fmt;

/// Identifier of one data item: an index into the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItemId(pub usize);

impl fmt::Display for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A set of data items, stored as a fixed-capacity bitset.
///
/// All set algebra the DTA algorithms need (`∩`, `∪`, `∖`, cardinality,
/// subset/disjointness tests) runs word-parallel.
///
/// # Examples
///
/// ```
/// use mec_sim::data::{DataItemId, ItemSet};
///
/// let mut a = ItemSet::new(100);
/// a.insert(DataItemId(3));
/// a.insert(DataItemId(64));
/// let mut b = ItemSet::new(100);
/// b.insert(DataItemId(64));
/// assert_eq!(a.intersection(&b).len(), 1);
/// assert!(b.is_subset_of(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ItemSet {
    capacity: usize,
    words: Vec<u64>,
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ItemSet({} of {}: {{", self.len(), self.capacity)?;
        for (k, id) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            if k >= 16 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}})")
    }
}

impl ItemSet {
    /// Creates an empty set able to hold items `0..capacity`.
    pub fn new(capacity: usize) -> ItemSet {
        ItemSet {
            capacity,
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Creates a set containing every item `0..capacity`.
    pub fn full(capacity: usize) -> ItemSet {
        let mut s = ItemSet::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds a set from item ids.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= capacity`.
    pub fn from_ids<I: IntoIterator<Item = DataItemId>>(capacity: usize, ids: I) -> ItemSet {
        let mut s = ItemSet::new(capacity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Capacity (size of the universe the set indexes into).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an item; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id.0 >= capacity`.
    pub fn insert(&mut self, id: DataItemId) -> bool {
        assert!(
            id.0 < self.capacity,
            "item {id} beyond capacity {}",
            self.capacity
        );
        let (w, b) = (id.0 / 64, id.0 % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes an item; returns whether it was present.
    pub fn remove(&mut self, id: DataItemId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        let (w, b) = (id.0 / 64, id.0 % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    pub fn contains(&self, id: DataItemId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        self.words[id.0 / 64] & (1 << (id.0 % 64)) != 0
    }

    /// Number of items in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∩ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        self.zip_words(other, |a, b| a & b)
    }

    /// `self ∪ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        self.zip_words(other, |a, b| a | b)
    }

    /// `self ∖ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        self.zip_words(other, |a, b| a & !b)
    }

    /// Removes every item of `other` from `self` in place.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn subtract(&mut self, other: &ItemSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// Adds every item of `other` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn union_with(&mut self, other: &ItemSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// `|self ∩ other|` without allocating.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn intersection_len(&self, other: &ItemSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True iff every item of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// True iff the sets share no item.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        self.intersection_len(other) == 0
    }

    /// The backing bit words, least-significant item first. Word `w`
    /// covers items `64·w .. 64·w+63`; bits beyond `capacity` are zero.
    /// Exposed so flat scans (e.g. [`HoldingsMatrix`]) can run
    /// word-parallel without going through per-item iteration.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the member ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    fn zip_words(&self, other: &ItemSet, f: impl Fn(u64, u64) -> u64) -> ItemSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        ItemSet {
            capacity: self.capacity,
            words,
        }
    }
}

/// Ascending iterator over an [`ItemSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a ItemSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = DataItemId;

    fn next(&mut self) -> Option<DataItemId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(DataItemId(self.word * 64 + b));
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = DataItemId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<DataItemId> for ItemSet {
    /// Collects ids into a set sized to the largest id seen.
    fn from_iter<I: IntoIterator<Item = DataItemId>>(iter: I) -> ItemSet {
        let ids: Vec<DataItemId> = iter.into_iter().collect();
        let capacity = ids.iter().map(|i| i.0 + 1).max().unwrap_or(0);
        ItemSet::from_ids(capacity, ids)
    }
}

/// The shared data universe `D` plus every device's holdings `D_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataUniverse {
    item_sizes: Vec<Bytes>,
    holdings: Vec<ItemSet>,
}

impl DataUniverse {
    /// Builds a universe from per-item sizes and per-device holdings
    /// (indexed by `DeviceId.0`).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] when a holding's capacity
    /// disagrees with the number of items, an item size is non-positive,
    /// or some item is owned by no device (the union of holdings must
    /// cover the universe or tasks could never be served).
    pub fn new(item_sizes: Vec<Bytes>, holdings: Vec<ItemSet>) -> Result<DataUniverse, MecError> {
        let m = item_sizes.len();
        if let Some(bad) = item_sizes.iter().find(|s| !(s.value() > 0.0)) {
            return Err(MecError::InvalidParameter {
                name: "item_sizes",
                reason: format!("item size {bad} must be positive"),
            });
        }
        for (i, h) in holdings.iter().enumerate() {
            if h.capacity() != m {
                return Err(MecError::InvalidParameter {
                    name: "holdings",
                    reason: format!(
                        "device {i} holding capacity {} != universe size {m}",
                        h.capacity()
                    ),
                });
            }
        }
        let mut covered = ItemSet::new(m);
        for h in &holdings {
            covered.union_with(h);
        }
        if covered.len() != m {
            return Err(MecError::InvalidParameter {
                name: "holdings",
                reason: format!("{} of {m} items are owned by no device", m - covered.len()),
            });
        }
        Ok(DataUniverse {
            item_sizes,
            holdings,
        })
    }

    /// Number of items `M` in the universe.
    pub fn num_items(&self) -> usize {
        self.item_sizes.len()
    }

    /// Number of devices with holdings.
    pub fn num_devices(&self) -> usize {
        self.holdings.len()
    }

    /// Size of one item.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn item_size(&self, id: DataItemId) -> Bytes {
        self.item_sizes[id.0]
    }

    /// Total size of a set of items.
    pub fn set_size(&self, set: &ItemSet) -> Bytes {
        set.iter().map(|id| self.item_size(id)).sum()
    }

    /// The holdings `D_i` of one device.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::UnknownDevice`] for an out-of-range device.
    pub fn holdings(&self, device: DeviceId) -> Result<&ItemSet, MecError> {
        self.holdings
            .get(device.0)
            .ok_or(MecError::UnknownDevice(device))
    }

    /// `UD_i = D ∩ D_i` for a required set `D` (paper Section IV.A).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::UnknownDevice`] for an out-of-range device.
    pub fn usable(&self, device: DeviceId, required: &ItemSet) -> Result<ItemSet, MecError> {
        Ok(self.holdings(device)?.intersection(required))
    }

    /// Devices owning a given item, ascending.
    ///
    /// One call scans every device's bitset; algorithms that look owners
    /// up in a loop should build an [`OwnersIndex`] once instead.
    pub fn owners(&self, id: DataItemId) -> Vec<DeviceId> {
        self.holdings
            .iter()
            .enumerate()
            .filter(|(_, h)| h.contains(id))
            .map(|(i, _)| DeviceId(i))
            .collect()
    }
}

/// Word-major holdings matrix: word `w` of *every* device's holdings laid
/// out contiguously (`words[w·n + i]` for device `i`), so a scan over all
/// devices for one item word is a cache-linear pass (DESIGN.md §11). The
/// DTA greedy rounds seed and maintain per-device usable counts through
/// this layout instead of re-intersecting every holdings bitset per
/// round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldingsMatrix {
    num_devices: usize,
    words_per_set: usize,
    words: Vec<u64>,
}

impl HoldingsMatrix {
    /// Transposes a universe's holdings into word-major order.
    pub fn build(universe: &DataUniverse) -> HoldingsMatrix {
        let n = universe.num_devices();
        let words_per_set = universe.num_items().div_ceil(64);
        let mut words = vec![0u64; words_per_set * n];
        for (i, h) in universe.holdings.iter().enumerate() {
            for (w, &word) in h.words().iter().enumerate() {
                words[w * n + i] = word;
            }
        }
        HoldingsMatrix {
            num_devices: n,
            words_per_set,
            words,
        }
    }

    /// Number of devices (columns).
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Words per holdings set (rows).
    pub fn words_per_set(&self) -> usize {
        self.words_per_set
    }

    /// Word `w` of every device's holdings, indexed by device id.
    ///
    /// # Panics
    ///
    /// Panics if `w >= words_per_set`.
    pub fn word_row(&self, w: usize) -> &[u64] {
        &self.words[w * self.num_devices..(w + 1) * self.num_devices]
    }

    /// `|D_i ∩ set|` for every device: one contiguous row pass per
    /// nonzero word of `set`.
    ///
    /// # Panics
    ///
    /// Panics when `set` was built for a different universe (word count
    /// mismatch), mirroring the [`ItemSet`] capacity assertions.
    pub fn usable_counts(&self, set: &ItemSet) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_devices];
        self.fold_counts(&mut counts, set, false);
        counts
    }

    /// Decrements `counts[i]` by `|D_i ∩ removed|` for every device —
    /// the exact drop in usable counts when `removed ⊆ residual` leaves
    /// the residual set.
    ///
    /// # Panics
    ///
    /// Panics on word-count mismatch with the universe, or (in debug
    /// builds, via overflow checks) when a count underflows — i.e. when
    /// `removed` was not a subset of the residual the counts track.
    pub fn subtract_counts(&self, counts: &mut [u32], removed: &ItemSet) {
        self.fold_counts(counts, removed, true);
    }

    fn fold_counts(&self, counts: &mut [u32], set: &ItemSet, subtract: bool) {
        assert_eq!(
            set.words().len(),
            self.words_per_set,
            "capacity mismatch between item set and holdings matrix"
        );
        assert_eq!(counts.len(), self.num_devices, "one count per device");
        for (w, &sw) in set.words().iter().enumerate() {
            if sw == 0 {
                continue;
            }
            for (c, &hw) in counts.iter_mut().zip(self.word_row(w)) {
                let overlap = (hw & sw).count_ones();
                if subtract {
                    *c -= overlap;
                } else {
                    *c += overlap;
                }
            }
        }
    }
}

/// Checked `usize` → `u32` index conversion.
fn to_u32(what: &'static str, index: usize) -> Result<u32, MecError> {
    u32::try_from(index).map_err(|_| MecError::IndexOverflow { what, index })
}

/// CSR index `item → owning devices` (ascending device id per item),
/// replacing the `O(devices × words)` scan of [`DataUniverse::owners`]
/// for algorithms that look owners up inside a loop (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnersIndex {
    offsets: Vec<u32>,
    owners: Vec<u32>,
}

impl OwnersIndex {
    /// Builds the index in two passes (count, then fill); device ids per
    /// item come out ascending because devices are scanned in id order.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::IndexOverflow`] when device count or total
    /// ownership pairs exceed the `u32` handle space.
    pub fn build(universe: &DataUniverse) -> Result<OwnersIndex, MecError> {
        let m = universe.num_items();
        let pairs: usize = universe.holdings.iter().map(ItemSet::len).sum();
        to_u32("ownership pair count", pairs)?;
        let mut offsets = vec![0u32; m + 1];
        for h in &universe.holdings {
            for id in h.iter() {
                offsets[id.0 + 1] += 1;
            }
        }
        for w in 1..=m {
            offsets[w] += offsets[w - 1];
        }
        let mut cursor: Vec<u32> = offsets[..m].to_vec();
        let mut owners = vec![0u32; pairs];
        for (i, h) in universe.holdings.iter().enumerate() {
            let dev = to_u32("device index", i)?;
            for id in h.iter() {
                owners[cursor[id.0] as usize] = dev;
                cursor[id.0] += 1;
            }
        }
        Ok(OwnersIndex { offsets, owners })
    }

    /// Devices owning `id`, ascending; empty for out-of-range ids.
    pub fn owners(&self, id: DataItemId) -> &[u32] {
        match (self.offsets.get(id.0), self.offsets.get(id.0 + 1)) {
            (Some(&a), Some(&b)) => &self.owners[a as usize..b as usize],
            _ => &[],
        }
    }
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_newtype!(DataItemId(usize));
djson::impl_json_struct!(ItemSet { capacity, words });
djson::impl_json_struct!(DataUniverse {
    item_sizes,
    holdings
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<DataItemId> {
        v.iter().map(|&i| DataItemId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = ItemSet::new(130);
        assert!(s.insert(DataItemId(0)));
        assert!(s.insert(DataItemId(129)));
        assert!(!s.insert(DataItemId(0)), "reinsert reports false");
        assert!(s.contains(DataItemId(129)));
        assert!(!s.contains(DataItemId(64)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(DataItemId(0)));
        assert!(!s.remove(DataItemId(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = ItemSet::from_ids(10, ids(&[1, 2, 3, 7]));
        let b = ItemSet::from_ids(10, ids(&[3, 7, 9]));
        assert_eq!(a.intersection(&b).len(), 2);
        assert_eq!(a.union(&b).len(), 5);
        assert_eq!(a.difference(&b).len(), 2);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_subset_of(&b));
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn full_and_trim() {
        let f = ItemSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(DataItemId(69)));
        assert!(!f.contains(DataItemId(70)));
    }

    #[test]
    fn iterator_ascends() {
        let s = ItemSet::from_ids(200, ids(&[150, 3, 64, 65]));
        let got: Vec<usize> = s.iter().map(|d| d.0).collect();
        assert_eq!(got, vec![3, 64, 65, 150]);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: ItemSet = ids(&[5, 2]).into_iter().collect();
        assert_eq!(s.capacity(), 6);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn insert_out_of_range_panics() {
        ItemSet::new(4).insert(DataItemId(4));
    }

    #[test]
    fn universe_validates_coverage() {
        let sizes = vec![Bytes::new(10.0); 4];
        // Item 3 owned by nobody → error.
        let holdings = vec![
            ItemSet::from_ids(4, ids(&[0, 1])),
            ItemSet::from_ids(4, ids(&[1, 2])),
        ];
        assert!(DataUniverse::new(sizes.clone(), holdings).is_err());

        let holdings = vec![
            ItemSet::from_ids(4, ids(&[0, 1, 3])),
            ItemSet::from_ids(4, ids(&[1, 2])),
        ];
        let u = DataUniverse::new(sizes, holdings).unwrap();
        assert_eq!(u.num_items(), 4);
        assert_eq!(u.owners(DataItemId(1)), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(
            u.set_size(&ItemSet::from_ids(4, ids(&[0, 2]))),
            Bytes::new(20.0)
        );
    }

    #[test]
    fn usable_intersects_holdings() {
        let sizes = vec![Bytes::new(1.0); 5];
        let holdings = vec![
            ItemSet::from_ids(5, ids(&[0, 1, 2])),
            ItemSet::from_ids(5, ids(&[2, 3, 4])),
        ];
        let u = DataUniverse::new(sizes, holdings).unwrap();
        let required = ItemSet::from_ids(5, ids(&[1, 2, 3]));
        assert_eq!(u.usable(DeviceId(0), &required).unwrap().len(), 2);
        assert_eq!(u.usable(DeviceId(1), &required).unwrap().len(), 2);
        assert!(u.usable(DeviceId(7), &required).is_err());
    }

    #[test]
    fn holdings_matrix_counts_match_per_device_intersections() {
        let sizes = vec![Bytes::new(1.0); 130];
        let holdings = vec![
            ItemSet::from_ids(130, ids(&[0, 63, 64, 129])),
            ItemSet::from_ids(130, (0..130).map(DataItemId)),
            ItemSet::from_ids(130, ids(&[64, 65])),
        ];
        let u = DataUniverse::new(sizes, holdings.clone()).unwrap();
        let matrix = HoldingsMatrix::build(&u);
        assert_eq!(matrix.num_devices(), 3);
        assert_eq!(matrix.words_per_set(), 3);
        let required = ItemSet::from_ids(130, ids(&[0, 64, 65, 128]));
        let counts = matrix.usable_counts(&required);
        for (i, h) in holdings.iter().enumerate() {
            assert_eq!(counts[i] as usize, h.intersection_len(&required));
        }
        // Subtracting a subset of the tracked set keeps counts exact.
        let mut counts = counts;
        let removed = ItemSet::from_ids(130, ids(&[64, 128]));
        matrix.subtract_counts(&mut counts, &removed);
        let residual = required.difference(&removed);
        for (i, h) in holdings.iter().enumerate() {
            assert_eq!(counts[i] as usize, h.intersection_len(&residual));
        }
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn holdings_matrix_rejects_foreign_sets() {
        let sizes = vec![Bytes::new(1.0); 4];
        let u = DataUniverse::new(sizes, vec![ItemSet::full(4)]).unwrap();
        HoldingsMatrix::build(&u).usable_counts(&ItemSet::new(130));
    }

    #[test]
    fn owners_index_matches_owners_scan() {
        let sizes = vec![Bytes::new(1.0); 70];
        let holdings = vec![
            ItemSet::from_ids(70, ids(&[0, 5, 69])),
            ItemSet::from_ids(70, (0..70).map(DataItemId)),
            ItemSet::from_ids(70, ids(&[5, 6])),
        ];
        let u = DataUniverse::new(sizes, holdings).unwrap();
        let index = OwnersIndex::build(&u).unwrap();
        for item in 0..70 {
            let id = DataItemId(item);
            let via_scan: Vec<u32> = u.owners(id).iter().map(|d| d.0 as u32).collect();
            assert_eq!(index.owners(id), via_scan.as_slice(), "item {item}");
        }
        assert!(index.owners(DataItemId(70)).is_empty(), "out of range");
    }

    #[test]
    fn overflow_is_a_typed_error() {
        let err = to_u32("device index", u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, MecError::IndexOverflow { .. }));
        assert!(err.to_string().contains("device index"));
        assert_eq!(to_u32("ok", 17).unwrap(), 17);
    }

    #[test]
    fn universe_rejects_bad_sizes_and_capacity() {
        assert!(DataUniverse::new(vec![Bytes::new(0.0)], vec![ItemSet::full(1)]).is_err());
        assert!(
            DataUniverse::new(vec![Bytes::new(1.0)], vec![ItemSet::new(2)]).is_err(),
            "capacity mismatch must be rejected"
        );
    }
}
