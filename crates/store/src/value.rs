//! Data item values.

use std::fmt;

use bytes::Bytes;

/// The value of a data item.
///
/// Whole-item copying (the paper's presentation context, §2) *shares* this
/// buffer: [`ItemValue::share`] hands out a refcounted [`Bytes`] view, so
/// shipping a value is a refcount bump, never a memcpy. Byte-range updates
/// mutate in place when the buffer is unshared and copy-on-write exactly
/// once when an in-flight shipment still aliases it — the mutate-after-ship
/// case is explicit, not accidental.
#[derive(Clone, Debug)]
enum Repr {
    /// Refcounted storage, possibly aliased by in-flight messages or other
    /// replicas' stores. Read-only until promoted to `Owned`.
    Shared(Bytes),
    /// Exclusively owned storage; mutates in place.
    Owned(Vec<u8>),
}

/// The value of a data item: refcounted for shipping, copy-on-write for
/// mutation. See the module docs for the sharing discipline.
#[derive(Clone, Debug)]
pub struct ItemValue {
    repr: Repr,
}

impl Default for ItemValue {
    fn default() -> ItemValue {
        ItemValue { repr: Repr::Owned(Vec::new()) }
    }
}

impl ItemValue {
    /// An empty value (all items start empty at initialization).
    pub fn new() -> ItemValue {
        ItemValue::default()
    }

    /// Build from a byte slice (copies once, into owned storage).
    pub fn from_slice(data: &[u8]) -> ItemValue {
        ItemValue { repr: Repr::Owned(data.to_vec()) }
    }

    /// Current length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True if the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// Read access to the raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Shared(b) => b,
            Repr::Owned(v) => v,
        }
    }

    /// Replace the whole value, adopting the buffer as-is — zero-copy; the
    /// value becomes (or stays) shared storage.
    pub fn set(&mut self, data: Bytes) {
        self.repr = Repr::Shared(data);
    }

    /// A refcounted handle to the current contents — the ship operation.
    ///
    /// Owned storage is promoted to shared in place (moving the `Vec`
    /// behind an `Arc`, no copy); thereafter clones are refcount bumps and
    /// any later mutation of `self` goes through the copy-on-write path,
    /// leaving every outstanding handle untouched.
    pub fn share(&mut self) -> Bytes {
        match &mut self.repr {
            Repr::Shared(b) => b.clone(),
            Repr::Owned(v) => {
                let shared = Bytes::from(std::mem::take(v));
                self.repr = Repr::Shared(shared.clone());
                shared
            }
        }
    }

    /// Make the storage exclusively owned, copying only when an in-flight
    /// shipment (or another store) still aliases it — the copy-on-write
    /// step behind every in-place mutation.
    fn make_owned(&mut self) -> &mut Vec<u8> {
        if let Repr::Shared(b) = &mut self.repr {
            let owned = match std::mem::take(b).try_into_vec() {
                Ok(v) => v,           // sole owner: reclaim the allocation
                Err(b) => b.to_vec(), // aliased: the one copy-on-write memcpy
            };
            self.repr = Repr::Owned(owned);
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Shared(_) => unreachable!("just promoted to owned"),
        }
    }

    /// Overwrite bytes at `offset`, zero-filling any gap.
    pub fn write_range(&mut self, offset: usize, data: &[u8]) {
        let bytes = self.make_owned();
        let end = offset + data.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset..end].copy_from_slice(data);
    }

    /// Append bytes at the end.
    pub fn append(&mut self, data: &[u8]) {
        self.make_owned().extend_from_slice(data);
    }

    /// Copy the value into a freshly shared buffer. Prefer
    /// [`ItemValue::share`] (zero-copy) when `&mut self` is available; this
    /// remains for read-only contexts.
    pub fn to_bytes(&self) -> Bytes {
        match &self.repr {
            Repr::Shared(b) => b.clone(),
            Repr::Owned(v) => Bytes::copy_from_slice(v),
        }
    }
}

impl PartialEq for ItemValue {
    fn eq(&self, other: &ItemValue) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ItemValue {}

impl fmt::Display for ItemValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) if s.len() <= 64 => write!(f, "{s:?}"),
            _ => write!(f, "[{} bytes]", self.len()),
        }
    }
}

impl From<&[u8]> for ItemValue {
    fn from(data: &[u8]) -> Self {
        ItemValue::from_slice(data)
    }
}

impl From<Vec<u8>> for ItemValue {
    fn from(bytes: Vec<u8>) -> Self {
        ItemValue { repr: Repr::Owned(bytes) }
    }
}

impl From<Bytes> for ItemValue {
    fn from(bytes: Bytes) -> Self {
        ItemValue { repr: Repr::Shared(bytes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let v = ItemValue::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn set_replaces() {
        let mut v = ItemValue::from_slice(b"aaaa");
        v.set(Bytes::from_static(b"bb"));
        assert_eq!(v.as_bytes(), b"bb");
    }

    #[test]
    fn set_adopts_buffer_without_copy() {
        let mut v = ItemValue::new();
        let data = Bytes::from(vec![3; 64]);
        v.set(data.clone());
        assert!(v.share().shares_storage_with(&data));
    }

    #[test]
    fn write_range_in_bounds_and_extending() {
        let mut v = ItemValue::from_slice(b"0123456789");
        v.write_range(2, b"AB");
        assert_eq!(v.as_bytes(), b"01AB456789");
        v.write_range(12, b"Z");
        assert_eq!(v.as_bytes(), b"01AB456789\0\0Z");
    }

    #[test]
    fn share_is_zero_copy_and_stable() {
        let mut v = ItemValue::from_slice(b"payload");
        let ptr = v.as_bytes().as_ptr();
        let shipped = v.share();
        assert_eq!(shipped.as_ref().as_ptr(), ptr, "owned->shared moves, not copies");
        assert!(v.share().shares_storage_with(&shipped), "second share is a refcount bump");
    }

    #[test]
    fn mutate_after_share_copies_on_write() {
        let mut v = ItemValue::from_slice(b"hello world");
        let shipped = v.share();
        v.write_range(0, b"HELLO");
        assert_eq!(v.as_bytes(), b"HELLO world");
        assert_eq!(&shipped[..], b"hello world", "in-flight copy unaffected");
        assert!(!v.share().shares_storage_with(&shipped), "storage diverged");
    }

    #[test]
    fn mutate_unaliased_shared_reclaims_allocation() {
        let mut v = ItemValue::new();
        // Spare capacity, so the append cannot move the buffer by growing
        // it: a moved pointer can then only mean a copy.
        let mut buf = Vec::with_capacity(512);
        buf.resize(256, 7);
        v.set(Bytes::from(buf));
        let ptr = v.as_bytes().as_ptr();
        v.append(&[8]); // sole owner: must reuse the same allocation
        assert_eq!(v.as_bytes().as_ptr(), ptr);
        assert_eq!(v.len(), 257);
    }

    #[test]
    fn equality_is_content_based_across_reprs() {
        let owned = ItemValue::from_slice(b"same");
        let shared: ItemValue = Bytes::from_static(b"same").into();
        assert_eq!(owned, shared);
        assert_ne!(owned, ItemValue::from_slice(b"diff"));
    }

    #[test]
    fn to_bytes_round_trips() {
        let v = ItemValue::from_slice(b"payload");
        assert_eq!(&v.to_bytes()[..], b"payload");
    }

    #[test]
    fn display_short_utf8_and_binary() {
        assert_eq!(ItemValue::from_slice(b"hi").to_string(), "\"hi\"");
        let big = ItemValue::from(vec![0u8; 100]);
        assert_eq!(big.to_string(), "[100 bytes]");
    }
}
