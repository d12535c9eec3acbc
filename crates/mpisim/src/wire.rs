//! Minimal binary wire codec over [`bytes`].
//!
//! The simulated programs exchange small structured payloads (queries,
//! result lists, tree nodes). Rather than pull in a serde format crate, we
//! hand-roll little-endian put/get helpers; every composite message in the
//! workspace is encoded with these.
//!
//! All `get_*` functions panic on underflow — a malformed simulated message
//! is a program bug, not a recoverable condition.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Appends a `u32` (little endian).
#[inline]
pub fn put_u32(buf: &mut BytesMut, v: u32) {
    buf.put_u32_le(v);
}

/// Reads a `u32`.
#[inline]
pub fn get_u32(buf: &mut impl Buf) -> u32 {
    buf.get_u32_le()
}

/// Appends a `u64`.
#[inline]
pub fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u64_le(v);
}

/// Reads a `u64`.
#[inline]
pub fn get_u64(buf: &mut impl Buf) -> u64 {
    buf.get_u64_le()
}

/// Appends an `f32`.
#[inline]
pub fn put_f32(buf: &mut BytesMut, v: f32) {
    buf.put_f32_le(v);
}

/// Reads an `f32`.
#[inline]
pub fn get_f32(buf: &mut impl Buf) -> f32 {
    buf.get_f32_le()
}

/// Appends an `f64`.
#[inline]
pub fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_f64_le(v);
}

/// Reads an `f64`.
#[inline]
pub fn get_f64(buf: &mut impl Buf) -> f64 {
    buf.get_f64_le()
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut BytesMut, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.put_slice(v);
}

/// Reads a length-prefixed byte string.
pub fn get_bytes(buf: &mut Bytes) -> Bytes {
    let n = get_u32(buf) as usize;
    buf.split_to(n)
}

/// Appends a length-prefixed `f32` slice.
pub fn put_f32_slice(buf: &mut BytesMut, v: &[f32]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        buf.put_f32_le(x);
    }
}

/// Reads a length-prefixed `f32` vector.
pub fn get_f32_vec(buf: &mut impl Buf) -> Vec<f32> {
    let n = get_u32(buf) as usize;
    (0..n).map(|_| buf.get_f32_le()).collect()
}

/// Appends `(id, dist)` pairs — the wire form of a neighbour list.
pub fn put_neighbors(buf: &mut BytesMut, pairs: &[(u32, f32)]) {
    put_u32(buf, pairs.len() as u32);
    for &(id, d) in pairs {
        buf.put_u32_le(id);
        buf.put_f32_le(d);
    }
}

/// Reads `(id, dist)` pairs.
pub fn get_neighbors(buf: &mut impl Buf) -> Vec<(u32, f32)> {
    let n = get_u32(buf) as usize;
    (0..n)
        .map(|_| (buf.get_u32_le(), buf.get_f32_le()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut b = BytesMut::new();
        put_u32(&mut b, 7);
        put_u64(&mut b, u64::MAX);
        put_f32(&mut b, -1.5);
        put_f64(&mut b, std::f64::consts::PI);
        let mut r = b.freeze();
        assert_eq!(get_u32(&mut r), 7);
        assert_eq!(get_u64(&mut r), u64::MAX);
        assert_eq!(get_f32(&mut r), -1.5);
        assert_eq!(get_f64(&mut r), std::f64::consts::PI);
        assert!(!r.has_remaining());
    }

    #[test]
    fn slices_round_trip() {
        let mut b = BytesMut::new();
        put_f32_slice(&mut b, &[1.0, 2.0, 3.0]);
        put_bytes(&mut b, b"abc");
        let mut r = b.freeze();
        assert_eq!(get_f32_vec(&mut r), vec![1.0, 2.0, 3.0]);
        assert_eq!(&get_bytes(&mut r)[..], b"abc");
    }

    #[test]
    fn empty_slices_round_trip() {
        let mut b = BytesMut::new();
        put_f32_slice(&mut b, &[]);
        put_neighbors(&mut b, &[]);
        let mut r = b.freeze();
        assert!(get_f32_vec(&mut r).is_empty());
        assert!(get_neighbors(&mut r).is_empty());
    }

    #[test]
    fn neighbors_round_trip() {
        let pairs = vec![(1u32, 0.5f32), (42, 7.25)];
        let mut b = BytesMut::new();
        put_neighbors(&mut b, &pairs);
        let mut r = b.freeze();
        assert_eq!(get_neighbors(&mut r), pairs);
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let mut r = Bytes::from_static(&[1, 2]);
        let _ = get_u32(&mut r);
    }
}
