//! 64-byte-aligned amplitude storage.
//!
//! The apply kernels stream pairs of `Complex64` through fused
//! multiply-adds; when the buffer start is aligned to a cache line the
//! compiler can emit aligned vector loads for every stride the strided
//! sweeps produce (strides are powers of two times 16 bytes). `Vec<C64>`
//! only guarantees 16-byte alignment, so the state vector owns its storage
//! through [`AmpBuf`], a fixed-length boxed slice allocated at
//! [`AMP_ALIGN`]. Deallocation must use the same alignment the allocation
//! did, which is why this cannot be retrofitted onto `Vec`.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::C64;

/// Alignment (bytes) of every amplitude buffer: one x86-64 cache line,
/// and enough for 512-bit vector loads.
pub const AMP_ALIGN: usize = 64;

/// A fixed-length, 64-byte-aligned buffer of complex amplitudes.
///
/// Semantically a `Box<[C64]>` with a stronger alignment guarantee; it
/// derefs to a slice, so all kernel code works on plain `[C64]`.
pub struct AmpBuf {
    ptr: NonNull<C64>,
    len: usize,
}

// SAFETY: the buffer uniquely owns a heap allocation of plain `Copy` data
// with no interior mutability or thread affinity.
unsafe impl Send for AmpBuf {}
// SAFETY: shared access is read-only (`&AmpBuf` only derefs to `&[C64]`).
unsafe impl Sync for AmpBuf {}

impl AmpBuf {
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<C64>(), AMP_ALIGN)
            .expect("amplitude buffer layout overflows")
    }

    /// An all-zero buffer of `len` amplitudes.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AmpBuf { ptr: NonNull::dangling(), len: 0 };
        }
        let layout = Self::layout(len);
        // SAFETY: `layout` has non-zero size (len > 0) and a valid
        // power-of-two alignment.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<C64>()) else { handle_alloc_error(layout) };
        AmpBuf { ptr, len }
    }

    /// A buffer holding a copy of `src`.
    pub fn from_slice(src: &[C64]) -> Self {
        if src.is_empty() {
            return AmpBuf { ptr: NonNull::dangling(), len: 0 };
        }
        let layout = Self::layout(src.len());
        // SAFETY: non-zero size, valid alignment.
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<C64>()) else { handle_alloc_error(layout) };
        // SAFETY: freshly allocated region of exactly `src.len()` elements,
        // disjoint from `src`.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.as_ptr(), src.len()) };
        AmpBuf { ptr, len: src.len() }
    }

    /// Number of amplitudes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no amplitudes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for AmpBuf {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `zeroed`/`from_slice` with this exact
            // layout (same length, same alignment).
            unsafe { dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(self.len)) };
        }
    }
}

impl Deref for AmpBuf {
    type Target = [C64];

    fn deref(&self) -> &[C64] {
        // SAFETY: `ptr` is valid for `len` initialized elements.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AmpBuf {
    fn deref_mut(&mut self) -> &mut [C64] {
        // SAFETY: `ptr` is valid for `len` initialized elements and
        // uniquely owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for AmpBuf {
    fn clone(&self) -> Self {
        AmpBuf::from_slice(self)
    }
}

impl PartialEq for AmpBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for AmpBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmpBuf").field("len", &self.len).finish_non_exhaustive()
    }
}

impl FromIterator<C64> for AmpBuf {
    fn from_iter<I: IntoIterator<Item = C64>>(iter: I) -> Self {
        let collected: Vec<C64> = iter.into_iter().collect();
        AmpBuf::from_slice(&collected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_cache_line_aligned() {
        for len in [1usize, 2, 8, 1024] {
            let zeroed = AmpBuf::zeroed(len);
            assert_eq!(zeroed.as_ptr() as usize % AMP_ALIGN, 0, "zeroed({len})");
            assert!(zeroed.iter().all(|a| a.re == 0.0 && a.im == 0.0));
            let copied = AmpBuf::from_slice(&zeroed);
            assert_eq!(copied.as_ptr() as usize % AMP_ALIGN, 0, "from_slice({len})");
            let cloned = copied.clone();
            assert_eq!(cloned.as_ptr() as usize % AMP_ALIGN, 0, "clone({len})");
        }
    }

    #[test]
    fn copies_round_trip_bitwise() {
        let mut buf = AmpBuf::zeroed(8);
        for (i, a) in buf.iter_mut().enumerate() {
            *a = C64::new(i as f64 + 0.25, -(i as f64));
        }
        let copy = buf.clone();
        assert_eq!(buf, copy);
        assert_eq!(&buf[..], &copy[..]);
        assert_eq!(buf.len(), 8);
        assert!(!buf.is_empty());
    }

    #[test]
    fn empty_buffer_is_inert() {
        let empty = AmpBuf::zeroed(0);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let clone = empty.clone();
        assert_eq!(empty, clone);
        assert!(!format!("{empty:?}").is_empty());
    }

    #[test]
    fn clones_are_independent_allocations() {
        let mut a = AmpBuf::zeroed(16);
        a[0] = C64::new(1.0, 2.0);
        let mut b = a.clone();
        assert_ne!(a.as_ptr(), b.as_ptr());
        b[0] = C64::new(-3.0, 0.5);
        assert_eq!(a[0], C64::new(1.0, 2.0));
        assert_eq!(b[0], C64::new(-3.0, 0.5));
    }

    #[test]
    fn repeated_alloc_copy_free_cycles_are_clean() {
        // Walks every unsafe path (alloc, alloc_zeroed, copy, dealloc)
        // across many sizes — the core loop Miri and ASan interpret.
        for round in 0..64usize {
            let len = 1usize << (round % 7);
            let mut buf = AmpBuf::zeroed(len);
            for (i, a) in buf.iter_mut().enumerate() {
                *a = C64::new(i as f64, round as f64);
            }
            let copy = AmpBuf::from_slice(&buf);
            drop(buf);
            assert_eq!(copy.len(), len);
            assert_eq!(copy[len - 1], C64::new((len - 1) as f64, round as f64));
        }
    }

    #[test]
    fn collects_from_iterator() {
        let buf: AmpBuf = (0..4).map(|i| C64::new(i as f64, 0.0)).collect();
        assert_eq!(buf.len(), 4);
        assert_eq!(buf[3], C64::new(3.0, 0.0));
        assert_eq!(buf.as_ptr() as usize % AMP_ALIGN, 0);
    }
}
