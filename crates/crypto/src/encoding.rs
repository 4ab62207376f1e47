//! Canonical wire encoding.
//!
//! Commitments and signatures are only meaningful over a *canonical* byte
//! representation: two honest implementations must serialize the same
//! route/vertex/message to the same bytes, or hashes will not match. This
//! module defines a small, deterministic, length-prefixed binary codec
//! used for (a) everything that gets hashed or signed, (b) simulator
//! message payloads, whose byte sizes feed the overhead accounting in
//! experiment E8, and (c) checkpoint sections.
//!
//! It is the only place that knows how a struct, an enum or a sequence
//! becomes bytes (DESIGN.md, "Wire codec"):
//!
//! * integers are big-endian and fixed-width; `usize` travels as a
//!   `u64` and is range-checked on decode; `bool` and `Option` are one
//!   `0`/`1` byte (then the value);
//! * a sequence — `Vec<T>`, `Arc<[T]>`, `String`, `BTreeMap`,
//!   `BTreeSet` — is a `u32` count followed by its items, decoded
//!   through one guarded path ([`Wire::decode_vec`]);
//! * a struct is its fields in declaration order ([`crate::wire_struct!`]),
//!   an enum one tag byte and then the variant's fields
//!   ([`crate::wire_enum!`]); both macros derive `encode`, `decode` and an
//!   arithmetic `encoded_len` from the one field list.
//!
//! There is deliberately no self-description or versioning — the codec
//! is internal to the workspace.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Errors raised when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A length prefix or discriminant had an impossible value.
    Invalid(&'static str),
    /// Decoding finished but bytes were left over (when using
    /// [`decode_exact`]).
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over input bytes for decoding.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a fixed-size array.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }
}

/// Canonical serialization to/from bytes.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Exact length of [`Wire::encode`]'s output, in bytes: pure
    /// arithmetic, so *measuring* a payload (simulator `wire_size`,
    /// disclosure overhead) never costs an allocation plus an encode.
    /// `encoded_len() == to_wire().len()` holds by construction for
    /// every impl the macros derive and is pinned for all of them by
    /// the catalog in `tests/wire.rs`.
    fn encoded_len(&self) -> usize;

    /// Convenience: encodes into a fresh vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Appends `items` as a sequence: a `u32` count, then each item.
    /// The three slice hooks exist so that `u8` can replace the
    /// per-item loop with one copy (the `Hash::hash_slice` trick);
    /// every sequence container encodes through them.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        encode_count(items.len(), buf);
        for it in items {
            it.encode(buf);
        }
    }

    /// Decodes a sequence written by [`Wire::encode_slice`]. The count
    /// comes from the input, so it is bounded before it sizes anything:
    /// an item costs at least one byte, and the reservation never
    /// exceeds the bytes left to read.
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let n = u32::decode(r)? as usize;
        if n > r.remaining() {
            return Err(WireError::Invalid("sequence count exceeds input size"));
        }
        let mut out = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<Self>().max(1)));
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Exact byte length [`Wire::encode_slice`] produces for `items`.
    fn slice_len(items: &[Self]) -> usize {
        4 + items.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// Writes a sequence's `u32` count. A longer sequence has no encoding;
/// writing `len mod 2³²` would commit to bytes that decode to something
/// else.
#[inline]
fn encode_count(len: usize, buf: &mut Vec<u8>) {
    u32::try_from(len).expect("sequence too long for its u32 count").encode(buf);
}

/// Decodes a value and requires the input to be fully consumed.
pub fn decode_exact<T: Wire>(data: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(data);
    let v = T::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

// The impls below are the codec's primitives and containers, written
// by hand because they *are* the rules the macros compose.

macro_rules! impl_wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_be_bytes(r.take_array()?))
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_wire_uint!(u16, u32, u64, u128);

/// A byte is an integer like the others, and the one item type whose
/// sequences are a count plus a single copy.
impl Wire for u8 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
    #[inline]
    fn encode_slice(items: &[u8], buf: &mut Vec<u8>) {
        encode_count(items.len(), buf);
        buf.extend_from_slice(items);
    }
    #[inline]
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        let n = u32::decode(r)? as usize;
        Ok(r.take(n)?.to_vec())
    }
    #[inline]
    fn slice_len(items: &[u8]) -> usize {
        4 + items.len()
    }
}

/// A `u64` on the wire on every platform; a value this platform's
/// `usize` cannot hold is an error, never a truncation.
impl Wire for usize {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::decode(r)?).map_err(|_| WireError::Invalid("usize out of range"))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool must be 0 or 1")),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
}

/// Fixed-width raw bytes (digests, blindings): no count.
impl<const N: usize> Wire for [u8; N] {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_array()
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        N
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode_slice(self, buf);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode_vec(r)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        T::slice_len(self)
    }
}

impl<T: Wire> Wire for Arc<[T]> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode_slice(self, buf);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(T::decode_vec(r)?.into())
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        T::slice_len(self)
    }
}

/// A byte sequence that must also be UTF-8.
impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        u8::encode_slice(self.as_bytes(), buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(u8::decode_vec(r)?).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
    fn encoded_len(&self) -> usize {
        u8::slice_len(self.as_bytes())
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid("Option discriminant")),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        match self {
            None => 1,
            Some(v) => 1 + v.encoded_len(),
        }
    }
}

/// A tuple is its members in order, like a struct.
macro_rules! impl_wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$i.encode(buf);)+
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($t::decode(r)?,)+))
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                0 $(+ self.$i.encoded_len())+
            }
        }
    };
}

impl_wire_tuple!(A 0, B 1);
impl_wire_tuple!(A 0, B 1, C 2);

/// A map is the sequence of its `(key, value)` pairs in key order; a
/// repeated key is an error, never a silent overwrite.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_count(self.len(), buf);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let pairs = Vec::<(K, V)>::decode(r)?;
        let n = pairs.len();
        let map: BTreeMap<K, V> = pairs.into_iter().collect();
        if map.len() != n {
            return Err(WireError::Invalid("duplicate map key"));
        }
        Ok(map)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(|(k, v)| k.encoded_len() + v.encoded_len()).sum::<usize>()
    }
}

/// A set is the sequence of its members in order; a repeated member
/// is an error.
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_count(self.len(), buf);
        for it in self {
            it.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let items = Vec::<T>::decode(r)?;
        let n = items.len();
        let set: BTreeSet<T> = items.into_iter().collect();
        if set.len() != n {
            return Err(WireError::Invalid("duplicate set member"));
        }
        Ok(set)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// Implements [`Wire`] for a struct from its field list: the fields in
/// the order given (which must be declaration order — it *is* the
/// format), each through its own `Wire` impl. Named fields are listed
/// by name, tuple fields by index:
///
/// ```
/// # use pvr_crypto::{decode_exact, wire_struct, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Hop { asn: u32, tags: Vec<u16> }
/// wire_struct!(Hop { asn, tags });
///
/// #[derive(Debug, PartialEq)]
/// struct Pair(u16, u16);
/// wire_struct!(Pair { 0, 1 });
///
/// let hop = Hop { asn: 7, tags: vec![1] };
/// assert_eq!(hop.to_wire(), [0, 0, 0, 7, 0, 0, 0, 1, 0, 1]);
/// assert_eq!(hop.encoded_len(), 10);
/// assert_eq!(decode_exact::<Hop>(&hop.to_wire()), Ok(hop));
/// assert_eq!(Pair(1, 2).to_wire(), [0, 1, 0, 2]);
/// ```
///
/// `decode` builds the struct literal from exactly these fields, so a
/// field missing from the list does not compile; `encode` and
/// `encoded_len` walk the same list, so the three cannot disagree.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::encoding::Wire for $name {
            #[inline]
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                $( $crate::encoding::Wire::encode(&self.$field, buf); )+
            }
            #[inline]
            fn decode(
                r: &mut $crate::encoding::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::encoding::WireError> {
                ::std::result::Result::Ok($name {
                    $( $field: $crate::encoding::Wire::decode(r)?, )+
                })
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                0 $( + $crate::encoding::Wire::encoded_len(&self.$field) )+
            }
        }
    };
}

/// Implements [`Wire`] for an enum from one `tag => Variant` list: one
/// tag byte, then the variant's fields in the order given. A variant
/// is written as it is matched — `Unit`, `Named { a, b }` or
/// `Tuple(x, y)` (any binder names):
///
/// ```
/// # use pvr_crypto::{decode_exact, wire_enum, Wire, WireError};
/// #[derive(Debug, PartialEq)]
/// enum Step { Stop, Go { hops: u16 }, Pair(u8, u8) }
/// wire_enum!(Step { 0 => Stop, 1 => Go { hops }, 2 => Pair(a, b) });
///
/// assert_eq!(Step::Go { hops: 3 }.to_wire(), [1, 0, 3]);
/// assert_eq!(Step::Pair(4, 5).encoded_len(), 3);
/// assert_eq!(decode_exact::<Step>(&[0]), Ok(Step::Stop));
/// assert_eq!(decode_exact::<Step>(&[9]), Err(WireError::Invalid("Step tag")));
/// ```
///
/// `encode` matches exhaustively, so a variant missing from the list
/// does not compile; an unknown tag decodes to a typed error.
#[macro_export]
macro_rules! wire_enum {
    ($name:ident {
        $( $tag:expr => $variant:ident
            $( { $($field:ident),+ $(,)? } )?
            $( ( $($item:ident),+ $(,)? ) )?
        ),+ $(,)?
    }) => {
        impl $crate::encoding::Wire for $name {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $( $name::$variant $( { $($field),+ } )? $( ( $($item),+ ) )? => {
                        buf.push($tag);
                        $( $( $crate::encoding::Wire::encode($field, buf); )+ )?
                        $( $( $crate::encoding::Wire::encode($item, buf); )+ )?
                    } )+
                }
            }
            fn decode(
                r: &mut $crate::encoding::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::encoding::WireError> {
                let tag = <u8 as $crate::encoding::Wire>::decode(r)?;
                $( if tag == $tag {
                    $( $( let $field = $crate::encoding::Wire::decode(r)?; )+ )?
                    $( $( let $item = $crate::encoding::Wire::decode(r)?; )+ )?
                    return ::std::result::Result::Ok(
                        $name::$variant $( { $($field),+ } )? $( ( $($item),+ ) )?
                    );
                } )+
                ::std::result::Result::Err($crate::encoding::WireError::Invalid(concat!(
                    stringify!($name),
                    " tag"
                )))
            }
            fn encoded_len(&self) -> usize {
                1 + match self {
                    $( $name::$variant $( { $($field),+ } )? $( ( $($item),+ ) )? => {
                        0 $( $( + $crate::encoding::Wire::encoded_len($field) )+ )?
                          $( $( + $crate::encoding::Wire::encoded_len($item) )+ )?
                    } )+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        let back: T = decode_exact(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xdeadu16);
        round_trip(0xdeadbeefu32);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(vec![1u8, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip("héllo wörld".to_string());
        round_trip(Some(42u32));
        round_trip(Option::<u32>::None);
        round_trip(sha256(b"digest"));
    }

    #[test]
    fn big_endian_layout() {
        assert_eq!(0x0102u16.to_wire(), vec![0x01, 0x02]);
        assert_eq!(vec![0xaau8].to_wire(), vec![0, 0, 0, 1, 0xaa]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = 0xdeadbeefu32.to_wire();
        assert_eq!(decode_exact::<u32>(&bytes[..3]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 7u8.to_wire();
        bytes.push(0);
        assert_eq!(decode_exact::<u8>(&bytes).unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(decode_exact::<bool>(&[2]).is_err());
    }

    #[test]
    fn invalid_option_rejected() {
        assert!(decode_exact::<Option<u8>>(&[9, 1]).is_err());
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // Claims 2^31 bytes follow; only 2 do.
        let bytes = [0x80, 0, 0, 0, 1, 2];
        assert!(decode_exact::<Vec<u8>>(&bytes).is_err());
    }

    #[test]
    fn sequence_layout_is_count_then_items() {
        assert_eq!(vec![1u16, 2].to_wire(), vec![0, 0, 0, 2, 0, 1, 0, 2]);
        // `Arc<[T]>` and `Vec<T>` are the same bytes, and `Vec<u8>`'s
        // single-copy override is the same framing as the item loop.
        let arc: Arc<[u16]> = Arc::from([1u16, 2]);
        assert_eq!(arc.to_wire(), vec![1u16, 2].to_wire());
        assert_eq!(vec![7u8, 9].to_wire(), [&[0u8, 0, 0, 2][..], &[7, 9]].concat());
        round_trip(vec![1u64, 2, 3, u64::MAX]);
        round_trip(arc);
        round_trip(Vec::<u32>::new());
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn seq_guard_against_bogus_count() {
        let bytes = [0xff, 0xff, 0xff, 0xff];
        assert_eq!(
            decode_exact::<Vec<u64>>(&bytes).unwrap_err(),
            WireError::Invalid("sequence count exceeds input size")
        );
        // A count the guard lets through (one byte per claimed item is
        // there) still reserves no more than the input could fill.
        let mut bytes = 16u32.to_wire();
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(decode_exact::<Vec<u128>>(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn usize_is_a_checked_u64() {
        assert_eq!(7usize.to_wire(), 7u64.to_wire());
        round_trip(usize::MAX);
        if usize::BITS < 64 {
            assert!(decode_exact::<usize>(&u64::MAX.to_wire()).is_err());
        }
    }

    #[test]
    fn arrays_and_tuples_are_their_members_in_order() {
        assert_eq!([1u8, 2, 3].to_wire(), vec![1, 2, 3]);
        assert_eq!((1u8, 0x0203u16).to_wire(), vec![1, 2, 3]);
        assert_eq!((1u8, 2u8, Some(3u8)).to_wire(), vec![1, 2, 1, 3]);
        round_trip([9u8; 32]);
        round_trip((1u32, vec![2u8]));
        round_trip((1u32, false, "x".to_string()));
    }

    #[test]
    fn maps_and_sets_are_sorted_sequences_without_repeats() {
        let map: BTreeMap<u8, u16> = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(map.to_wire(), vec![(1u8, 10u16), (2, 20)].to_wire());
        round_trip(map);
        let set: BTreeSet<u8> = [3, 1, 2].into_iter().collect();
        assert_eq!(set.to_wire(), vec![1u8, 2, 3].to_wire());
        round_trip(set);
        assert_eq!(
            decode_exact::<BTreeMap<u8, u16>>(&vec![(1u8, 10u16), (1, 11)].to_wire()).unwrap_err(),
            WireError::Invalid("duplicate map key")
        );
        assert_eq!(
            decode_exact::<BTreeSet<u8>>(&vec![4u8, 4].to_wire()).unwrap_err(),
            WireError::Invalid("duplicate set member")
        );
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_exact::<String>(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_bytes_round_trip(v in proptest::collection::vec(any::<u8>(), 0..200)) {
            round_trip(v);
        }

        #[test]
        fn prop_u64_round_trip(v in any::<u64>()) {
            round_trip(v);
        }

        #[test]
        fn prop_encoding_is_deterministic(v in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(v.to_wire(), v.to_wire());
        }
    }
}
