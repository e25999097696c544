//! Key/value codecs.
//!
//! The storage backends operate on raw byte strings; the transactional layer
//! is generic over typed keys and values.  A [`Codec`] bridges the two.  The
//! encodings for integer keys are **order-preserving** (big-endian), so range
//! scans over the byte representation match the natural ordering of the typed
//! key — this is what lets the LSM store's sorted runs be reused for typed
//! scans.

use tsp_common::{Result, TspError};

/// Encode/decode a type to/from its byte representation.
///
/// Implementations must round-trip: `decode(encode(x)) == x` for every value,
/// and for ordered key types the byte encoding must preserve ordering.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a value from `bytes`, which must contain exactly one encoding.
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Convenience wrapper returning a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

macro_rules! impl_uint_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn decode(bytes: &[u8]) -> Result<Self> {
                let arr: [u8; std::mem::size_of::<$t>()] = bytes
                    .try_into()
                    .map_err(|_| TspError::corruption(format!(
                        "expected {} bytes for {}, got {}",
                        std::mem::size_of::<$t>(),
                        stringify!($t),
                        bytes.len()
                    )))?;
                Ok(<$t>::from_be_bytes(arr))
            }
        }
    )*};
}

impl_uint_codec!(u8, u16, u32, u64, u128);

macro_rules! impl_int_codec {
    ($(($t:ty, $ut:ty)),*) => {$(
        impl Codec for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                // Flip the sign bit so the byte encoding preserves the
                // signed ordering (two's complement → offset binary).
                let flipped = (*self as $ut) ^ (1 << (<$ut>::BITS - 1));
                out.extend_from_slice(&flipped.to_be_bytes());
            }

            fn decode(bytes: &[u8]) -> Result<Self> {
                let raw = <$ut>::decode(bytes)?;
                Ok((raw ^ (1 << (<$ut>::BITS - 1))) as $t)
            }
        }
    )*};
}

impl_int_codec!((i16, u16), (i32, u32), (i64, u64), (i128, u128));

impl Codec for Vec<u8> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        Ok(bytes.to_vec())
    }
}

impl Codec for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        String::from_utf8(bytes.to_vec())
            .map_err(|e| TspError::corruption(format!("invalid UTF-8 in string value: {e}")))
    }
}

impl<const N: usize> Codec for [u8; N] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        bytes.try_into().map_err(|_| {
            TspError::corruption(format!(
                "expected {N} bytes for fixed array, got {}",
                bytes.len()
            ))
        })
    }
}

/// Appends a `u32` big-endian length prefix, the bytes `write` appends in
/// place, and then patches the prefix to the length actually written — a
/// length-prefixed encoding with no temporary buffer.
pub(crate) fn len_prefixed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Pair codec: encodes `(A, B)` as `len(A) || A || B` so the boundary can be
/// recovered.  Useful for composite keys (e.g. `(meter_id, window_start)`).
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        len_prefixed(out, |out| self.0.encode_into(out));
        self.1.encode_into(out);
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 4 {
            return Err(TspError::corruption(
                "pair encoding shorter than length prefix",
            ));
        }
        let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        if bytes.len() < 4 + len {
            return Err(TspError::corruption("pair encoding truncated"));
        }
        let a = A::decode(&bytes[4..4 + len])?;
        let b = B::decode(&bytes[4 + len..])?;
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_round_trip_and_order() {
        for v in [0u32, 1, 7, 0xFFFF_FFFF] {
            assert_eq!(u32::decode(&v.encode()).unwrap(), v);
        }
        for v in [0u64, 42, u64::MAX] {
            assert_eq!(u64::decode(&v.encode()).unwrap(), v);
        }
        // Big-endian encoding preserves order.
        assert!(5u64.encode() < 6u64.encode());
        assert!(255u64.encode() < 256u64.encode());
        assert!(1u32.encode() < u32::MAX.encode());
    }

    #[test]
    fn signed_round_trip_and_order() {
        for v in [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX] {
            assert_eq!(i64::decode(&v.encode()).unwrap(), v);
        }
        for v in [i32::MIN, -5, 0, 5, i32::MAX] {
            assert_eq!(i32::decode(&v.encode()).unwrap(), v);
        }
        // Order preservation across the sign boundary.
        assert!((-5i64).encode() < 0i64.encode());
        assert!((-1i64).encode() < 1i64.encode());
        assert!(i64::MIN.encode() < i64::MAX.encode());
        assert!((-300i32).encode() < (-299i32).encode());
    }

    #[test]
    fn uint_decode_wrong_length_is_corruption() {
        assert!(matches!(
            u32::decode(&[1, 2, 3]),
            Err(TspError::Corruption { .. })
        ));
        assert!(matches!(
            u64::decode(&[0; 9]),
            Err(TspError::Corruption { .. })
        ));
    }

    #[test]
    fn bytes_and_string_round_trip() {
        let v = vec![1u8, 2, 3, 250];
        assert_eq!(Vec::<u8>::decode(&v.encode()).unwrap(), v);
        let s = String::from("smart-meter-42");
        assert_eq!(String::decode(&s.encode()).unwrap(), s);
        assert!(String::decode(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn fixed_array_round_trip() {
        let a: [u8; 4] = [9, 8, 7, 6];
        assert_eq!(<[u8; 4]>::decode(&a.encode()).unwrap(), a);
        assert!(<[u8; 4]>::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn pair_round_trip() {
        let p: (u32, u64) = (7, 123456789);
        assert_eq!(<(u32, u64)>::decode(&p.encode()).unwrap(), p);
        let p2: (String, u32) = ("meter".into(), 99);
        assert_eq!(<(String, u32)>::decode(&p2.encode()).unwrap(), p2);
        assert!(<(u32, u64)>::decode(&[0, 0]).is_err());
    }

    #[test]
    fn pair_encodes_after_existing_bytes() {
        let mut out = vec![0xAA];
        (7u64, 9u64).encode_into(&mut out);
        let mut want = vec![0xAA, 0, 0, 0, 8];
        want.extend_from_slice(&7u64.to_be_bytes());
        want.extend_from_slice(&9u64.to_be_bytes());
        assert_eq!(out, want);
    }
}
