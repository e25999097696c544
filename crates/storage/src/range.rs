//! Range and prefix scans over storage backends.
//!
//! The `FROM` operator of §3 attaches ad-hoc queries to tables; snapshot
//! reports rarely want the whole table but a key range (a meter-id prefix, a
//! time window encoded in the key).  [`KeyRange`] describes such a range over
//! the byte-ordered key space produced by [`crate::codec::Codec`]'s
//! order-preserving encodings, and [`scan_range`] / [`scan_prefix`] evaluate
//! it against any [`StorageBackend`].
//!
//! Backends whose `scan` visits keys in ascending byte order (the B-tree
//! memtable and the LSM store) allow the scan to stop early once the range's
//! upper bound has been passed; any other backend (a wrapper, whose inner
//! order the scan cannot know) falls back to a filtered full scan.

use crate::backend::StorageBackend;
use std::ops::Bound;
use tsp_common::Result;

/// A half-open/closed/unbounded range over byte-string keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRange {
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
}

impl KeyRange {
    /// The full key space.
    pub fn all() -> Self {
        KeyRange {
            start: Bound::Unbounded,
            end: Bound::Unbounded,
        }
    }

    /// Keys in `[start, end)`.
    pub fn half_open(start: impl Into<Vec<u8>>, end: impl Into<Vec<u8>>) -> Self {
        KeyRange {
            start: Bound::Included(start.into()),
            end: Bound::Excluded(end.into()),
        }
    }

    /// Keys in `[start, end]`.
    pub fn closed(start: impl Into<Vec<u8>>, end: impl Into<Vec<u8>>) -> Self {
        KeyRange {
            start: Bound::Included(start.into()),
            end: Bound::Included(end.into()),
        }
    }

    /// Keys `>= start`.
    pub fn from(start: impl Into<Vec<u8>>) -> Self {
        KeyRange {
            start: Bound::Included(start.into()),
            end: Bound::Unbounded,
        }
    }

    /// Keys `< end`.
    pub fn until(end: impl Into<Vec<u8>>) -> Self {
        KeyRange {
            start: Bound::Unbounded,
            end: Bound::Excluded(end.into()),
        }
    }

    /// All keys starting with `prefix`.
    pub fn prefix(prefix: impl Into<Vec<u8>>) -> Self {
        let prefix = prefix.into();
        let end = prefix_successor(&prefix);
        KeyRange {
            start: Bound::Included(prefix),
            end: match end {
                Some(e) => Bound::Excluded(e),
                None => Bound::Unbounded,
            },
        }
    }

    /// True if `key` lies inside the range.
    pub fn contains(&self, key: &[u8]) -> bool {
        let after_start = match &self.start {
            Bound::Unbounded => true,
            Bound::Included(s) => key >= s.as_slice(),
            Bound::Excluded(s) => key > s.as_slice(),
        };
        after_start && !self.is_past(key)
    }

    /// True if `key` sorts after the end of the range — an ordered scan can
    /// stop as soon as this becomes true.
    pub fn is_past(&self, key: &[u8]) -> bool {
        match &self.end {
            Bound::Unbounded => false,
            Bound::Included(e) => key > e.as_slice(),
            Bound::Excluded(e) => key >= e.as_slice(),
        }
    }

    /// The lower bound.
    pub fn start(&self) -> &Bound<Vec<u8>> {
        &self.start
    }

    /// The upper bound.
    pub fn end(&self) -> &Bound<Vec<u8>> {
        &self.end
    }

    /// True if no key can satisfy the range (e.g. `[b, a)`).
    pub fn is_empty_range(&self) -> bool {
        match (&self.start, &self.end) {
            (Bound::Included(s), Bound::Excluded(e)) => s >= e,
            (Bound::Included(s), Bound::Included(e)) | (Bound::Excluded(s), Bound::Included(e)) => {
                s > e
            }
            (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
            _ => false,
        }
    }
}

/// Smallest byte string greater than every string with prefix `prefix`, or
/// `None` if no such string exists (prefix is all `0xFF`).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last == 0xFF {
            end.pop();
        } else {
            *last += 1;
            return Some(end);
        }
    }
    None
}

/// Visits every `(key, value)` of `backend` whose key lies in `range`.
///
/// Returning `false` from the visitor stops the scan.  For backends with
/// ordered scans, the scan also stops as soon as a key past the upper bound
/// is seen.
pub fn scan_range<B: StorageBackend + ?Sized>(
    backend: &B,
    range: &KeyRange,
    visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
) -> Result<()> {
    if range.is_empty_range() {
        return Ok(());
    }
    let ordered = backend_is_ordered(backend.name());
    backend.scan(&mut |k, v| {
        if range.contains(k) {
            visit(k, v)
        } else {
            !(ordered && range.is_past(k))
        }
    })
}

/// Visits every entry whose key starts with `prefix`.
pub fn scan_prefix<B: StorageBackend + ?Sized>(
    backend: &B,
    prefix: &[u8],
    visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
) -> Result<()> {
    scan_range(backend, &KeyRange::prefix(prefix), visit)
}

/// Collects the entries of a range scan into a vector (small result sets).
pub fn collect_range<B: StorageBackend + ?Sized>(
    backend: &B,
    range: &KeyRange,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    scan_range(backend, range, &mut |k, v| {
        out.push((k.to_vec(), v.to_vec()));
        true
    })?;
    Ok(out)
}

/// Counts the entries inside `range`.
pub fn count_range<B: StorageBackend + ?Sized>(backend: &B, range: &KeyRange) -> Result<usize> {
    let mut n = 0usize;
    scan_range(backend, range, &mut |_, _| {
        n += 1;
        true
    })?;
    Ok(n)
}

/// Whether a backend's `scan` is known to visit keys in ascending byte order
/// (allows early termination of range scans).
fn backend_is_ordered(name: &str) -> bool {
    matches!(name, "btree-mem" | "lsm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::BTreeBackend;
    use crate::stats::InstrumentedBackend;

    fn filled_btree() -> BTreeBackend {
        let b = BTreeBackend::new();
        for i in 0u32..100 {
            b.put(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        b
    }

    #[test]
    fn contains_and_is_past() {
        let r = KeyRange::half_open(vec![10u8], vec![20u8]);
        assert!(r.contains(&[10]));
        assert!(r.contains(&[15]));
        assert!(!r.contains(&[20]));
        assert!(!r.contains(&[5]));
        assert!(r.is_past(&[20]));
        assert!(!r.is_past(&[19]));

        let closed = KeyRange::closed(vec![10u8], vec![20u8]);
        assert!(closed.contains(&[20]));
        assert!(!closed.is_past(&[20]));
        assert!(closed.is_past(&[21]));

        assert!(KeyRange::all().contains(&[]));
        assert!(!KeyRange::all().is_past(&[255, 255]));
        assert!(KeyRange::from(vec![5u8]).contains(&[5]));
        assert!(!KeyRange::from(vec![5u8]).contains(&[4]));
        assert!(KeyRange::until(vec![5u8]).contains(&[4]));
        assert!(!KeyRange::until(vec![5u8]).contains(&[5]));
    }

    #[test]
    fn empty_ranges_are_detected() {
        assert!(KeyRange::half_open(vec![5u8], vec![5u8]).is_empty_range());
        assert!(KeyRange::half_open(vec![6u8], vec![5u8]).is_empty_range());
        assert!(!KeyRange::closed(vec![5u8], vec![5u8]).is_empty_range());
        assert!(!KeyRange::all().is_empty_range());
    }

    #[test]
    fn prefix_range_covers_exactly_the_prefix() {
        let r = KeyRange::prefix(b"ab".to_vec());
        assert!(r.contains(b"ab"));
        assert!(r.contains(b"abz"));
        assert!(r.contains(b"ab\xff\xff"));
        assert!(!r.contains(b"aa"));
        assert!(!r.contains(b"ac"));
        // All-0xFF prefix has no successor: upper bound is unbounded.
        let r = KeyRange::prefix(vec![0xFFu8, 0xFF]);
        assert!(r.contains(&[0xFF, 0xFF, 0x01]));
        assert_eq!(*r.end(), Bound::Unbounded);
        // Prefix with trailing 0xFF carries into the previous byte.
        let r = KeyRange::prefix(vec![0x01u8, 0xFF]);
        assert!(r.contains(&[0x01, 0xFF, 0x55]));
        assert!(!r.contains(&[0x02, 0x00]));
    }

    #[test]
    fn range_scan_on_ordered_backend() {
        let b = filled_btree();
        let range = KeyRange::half_open(10u32.to_be_bytes().to_vec(), 20u32.to_be_bytes().to_vec());
        let rows = collect_range(&b, &range).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, 10u32.to_be_bytes().to_vec());
        assert_eq!(rows[9].0, 19u32.to_be_bytes().to_vec());
        assert_eq!(count_range(&b, &KeyRange::all()).unwrap(), 100);
        assert_eq!(
            count_range(&b, &KeyRange::from(90u32.to_be_bytes().to_vec())).unwrap(),
            10
        );
        assert_eq!(
            count_range(&b, &KeyRange::half_open(vec![5u8], vec![4u8])).unwrap(),
            0
        );
    }

    #[test]
    fn range_scan_on_an_unordered_backend_filters_correctly() {
        // Not known to be ordered by name: the filtered full scan.
        let b = InstrumentedBackend::new(BTreeBackend::new());
        for i in 0u32..50 {
            b.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let range = KeyRange::closed(10u32.to_be_bytes().to_vec(), 19u32.to_be_bytes().to_vec());
        assert_eq!(count_range(&b, &range).unwrap(), 10);
    }

    #[test]
    fn early_stop_via_visitor() {
        let b = filled_btree();
        let mut seen = 0;
        scan_range(&b, &KeyRange::all(), &mut |_, _| {
            seen += 1;
            seen < 5
        })
        .unwrap();
        assert_eq!(seen, 5);
    }

    #[test]
    fn prefix_scan_over_string_keys() {
        let b = BTreeBackend::new();
        for key in ["meter/1/a", "meter/1/b", "meter/2/a", "pump/1"] {
            b.put(key.as_bytes(), b"x").unwrap();
        }
        let mut keys = Vec::new();
        scan_prefix(&b, b"meter/1/", &mut |k, _| {
            keys.push(String::from_utf8(k.to_vec()).unwrap());
            true
        })
        .unwrap();
        assert_eq!(keys, vec!["meter/1/a".to_string(), "meter/1/b".to_string()]);
    }
}
