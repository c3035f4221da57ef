//! Fixed-width keys for the [`Radix`](crate::Radix) shape.
//!
//! A radix-shaped tree places its routing boundaries on the bits of a 64-bit
//! *index* derived from the key through an order-preserving injection, and
//! stores each boundary back as a key (`Right_Subtree_Min`), so the index
//! mapping has an inverse on the images of keys. Narrow integer types are
//! mapped into the **high** bits of the index so that distinct keys diverge
//! near the top (a `u8` key space needs at most 8 radix levels, not 64).

use wft_seq::Key;

/// A key usable by a radix-shaped tree: totally ordered, with an
/// order-preserving embedding into `u64`.
///
/// Implementations must guarantee `a < b ⇔ a.to_index() < b.to_index()` and
/// `K::from_index(k.to_index()) == k`; the provided integer implementations
/// do (unsigned types shift into the high bits, signed types additionally
/// flip the sign bit).
pub trait RadixKey: Key {
    /// The order-preserving 64-bit index of this key.
    fn to_index(&self) -> u64;

    /// The key whose index is `index`. Only called on the image of a key.
    fn from_index(index: u64) -> Self;
}

macro_rules! impl_radix_key_unsigned {
    ($($t:ty => $bits:expr),*) => {
        $(impl RadixKey for $t {
            fn to_index(&self) -> u64 {
                (*self as u64) << (64 - $bits)
            }

            fn from_index(index: u64) -> Self {
                (index >> (64 - $bits)) as $t
            }
        })*
    };
}

macro_rules! impl_radix_key_signed {
    ($($t:ty => ($unsigned:ty, $bits:expr)),*) => {
        $(impl RadixKey for $t {
            fn to_index(&self) -> u64 {
                // Flip the sign bit so negative keys sort below positive
                // ones, then shift into the high bits.
                let flipped = (*self as $unsigned) ^ (1 << ($bits - 1));
                (flipped as u64) << (64 - $bits)
            }

            fn from_index(index: u64) -> Self {
                let flipped = (index >> (64 - $bits)) as $unsigned;
                (flipped ^ (1 << ($bits - 1))) as $t
            }
        })*
    };
}

impl_radix_key_unsigned!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);
impl_radix_key_signed!(i8 => (u8, 8), i16 => (u16, 16), i32 => (u32, 32), i64 => (u64, 64));

impl RadixKey for usize {
    fn to_index(&self) -> u64 {
        *self as u64
    }

    fn from_index(index: u64) -> Self {
        index as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_order_preserving<K: RadixKey>(keys: &[K]) {
        for a in keys {
            assert_eq!(
                K::from_index(a.to_index()),
                *a,
                "index of {a:?} not inverted"
            );
            for b in keys {
                assert_eq!(
                    a < b,
                    a.to_index() < b.to_index(),
                    "order not preserved for {a:?} vs {b:?}"
                );
                assert_eq!(a == b, a.to_index() == b.to_index());
            }
        }
    }

    #[test]
    fn unsigned_keys_preserve_order() {
        check_order_preserving::<u64>(&[0, 1, 2, 7, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        check_order_preserving::<u32>(&[0, 1, 1000, u32::MAX]);
        check_order_preserving::<u8>(&[0, 1, 127, 128, 255]);
    }

    #[test]
    fn signed_keys_preserve_order() {
        check_order_preserving::<i64>(&[i64::MIN, -5, -1, 0, 1, 5, i64::MAX]);
        check_order_preserving::<i32>(&[i32::MIN, -1, 0, 1, i32::MAX]);
        check_order_preserving::<i8>(&[i8::MIN, -1, 0, 1, i8::MAX]);
    }

    #[test]
    fn narrow_keys_occupy_the_high_bits() {
        // Distinct u8 keys must diverge within the first 8 bits of the index
        // so a split never builds 56-level chains of single-child nodes.
        let a = 3u8.to_index();
        let b = 4u8.to_index();
        assert!((a ^ b).leading_zeros() < 8);
    }
}
