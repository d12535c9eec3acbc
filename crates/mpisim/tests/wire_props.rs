//! Property tests for the wire codec: everything that goes in comes back
//! out, byte-exact, including empty payloads and maximum-size headers.

use bytes::{Buf, BytesMut};
use fastann_mpisim::wire;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scalars_round_trip(
        a in 0u32..u32::MAX,
        b in 0u64..u64::MAX,
        fb in 0u32..u32::MAX,
        db in 0u64..u64::MAX,
    ) {
        // floats from raw bits: covers -0.0, infinities, NaN payloads
        let f = f32::from_bits(fb);
        let d = f64::from_bits(db);
        let mut buf = BytesMut::new();
        wire::put_u32(&mut buf, a);
        wire::put_u64(&mut buf, b);
        wire::put_f32(&mut buf, f);
        wire::put_f64(&mut buf, d);
        let mut r = buf.freeze();
        prop_assert_eq!(wire::get_u32(&mut r), a);
        prop_assert_eq!(wire::get_u64(&mut r), b);
        prop_assert_eq!(wire::get_f32(&mut r).to_bits(), f.to_bits());
        prop_assert_eq!(wire::get_f64(&mut r).to_bits(), d.to_bits());
        prop_assert!(!r.has_remaining());
    }

    #[test]
    fn byte_strings_round_trip(payload in proptest::collection::vec(0u8..u8::MAX, 0..257)) {
        let mut buf = BytesMut::new();
        wire::put_bytes(&mut buf, &payload);
        prop_assert_eq!(buf.len(), 4 + payload.len(), "4-byte header + body");
        let mut r = buf.freeze();
        prop_assert_eq!(&wire::get_bytes(&mut r)[..], &payload[..]);
        prop_assert!(!r.has_remaining());
    }

    #[test]
    fn f32_slices_round_trip(bits in proptest::collection::vec(0u32..u32::MAX, 0..64)) {
        let v: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut buf = BytesMut::new();
        wire::put_f32_slice(&mut buf, &v);
        let mut r = buf.freeze();
        let back = wire::get_f32_vec(&mut r);
        prop_assert_eq!(back.len(), v.len());
        for (x, y) in back.iter().zip(&v) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert!(!r.has_remaining());
    }

    #[test]
    fn neighbors_round_trip(
        pairs in proptest::collection::vec((0u32..u32::MAX, 0.0f32..1e9), 0..48)
    ) {
        let mut buf = BytesMut::new();
        wire::put_neighbors(&mut buf, &pairs);
        prop_assert_eq!(buf.len(), 4 + 8 * pairs.len());
        let mut r = buf.freeze();
        prop_assert_eq!(wire::get_neighbors(&mut r), pairs);
        prop_assert!(!r.has_remaining());
    }

    #[test]
    fn mixed_composite_messages_round_trip(
        qid in 0u32..u32::MAX,
        part in 0u32..4096,
        q in proptest::collection::vec(-1e6f32..1e6, 0..32),
        tail in proptest::collection::vec(0u8..u8::MAX, 0..32),
    ) {
        // shape of an engine work item followed by opaque trailing bytes
        let mut buf = BytesMut::new();
        wire::put_u32(&mut buf, qid);
        wire::put_u32(&mut buf, part);
        wire::put_f32_slice(&mut buf, &q);
        wire::put_bytes(&mut buf, &tail);
        let mut r = buf.freeze();
        prop_assert_eq!(wire::get_u32(&mut r), qid);
        prop_assert_eq!(wire::get_u32(&mut r), part);
        prop_assert_eq!(wire::get_f32_vec(&mut r), q);
        prop_assert_eq!(&wire::get_bytes(&mut r)[..], &tail[..]);
        prop_assert!(!r.has_remaining());
    }
}

#[test]
fn empty_payloads_round_trip() {
    let mut buf = BytesMut::new();
    wire::put_bytes(&mut buf, &[]);
    wire::put_f32_slice(&mut buf, &[]);
    wire::put_neighbors(&mut buf, &[]);
    assert_eq!(
        buf.len(),
        12,
        "an empty payload is exactly its 4-byte header"
    );
    let mut r = buf.freeze();
    assert!(wire::get_bytes(&mut r).is_empty());
    assert!(wire::get_f32_vec(&mut r).is_empty());
    assert!(wire::get_neighbors(&mut r).is_empty());
    assert!(!r.has_remaining());
}

#[test]
fn max_value_headers_round_trip() {
    // the length prefix is a u32; its wire form must survive the extremes
    let mut buf = BytesMut::new();
    wire::put_u32(&mut buf, u32::MAX);
    wire::put_u32(&mut buf, 0);
    wire::put_u64(&mut buf, u64::MAX);
    let mut r = buf.freeze();
    assert_eq!(wire::get_u32(&mut r), u32::MAX);
    assert_eq!(wire::get_u32(&mut r), 0);
    assert_eq!(wire::get_u64(&mut r), u64::MAX);
}

#[test]
fn large_payload_header_is_exact() {
    // a megabyte-scale payload: header must carry the exact byte count
    let payload = vec![0xA5u8; 1 << 20];
    let mut buf = BytesMut::new();
    wire::put_bytes(&mut buf, &payload);
    let mut r = buf.freeze();
    let header = wire::get_u32(&mut r);
    assert_eq!(header, 1 << 20);
    assert_eq!(r.len(), 1 << 20);
    assert!(r.iter().all(|&b| b == 0xA5));
}
