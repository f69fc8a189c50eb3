//! Fixed-width record codec for the Spark baseline.
//!
//! Spark pays (de)serialization at every shuffle boundary; PGX.D moves
//! native memory. To keep that comparison honest the Spark baseline
//! round-trips every record through this codec at the map→reduce boundary,
//! while the PGX.D path ships `Vec<T>` by ownership.

/// Records with a fixed-width byte encoding whose decoded form compares
/// like the original.
pub trait Record: Copy + Ord + Send + Sync + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one record from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Self;
}

/// Takes the first `N` bytes off `buf`. [`decode_all`] checks the buffer
/// against the record width first, so a short buffer is a caller's bug.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_first_chunk().expect("truncated record buffer");
    *buf = rest;
    *head
}

/// Little-endian, fixed width: what the primitive's own `to_le_bytes` writes.
macro_rules! le_record {
    ($($int:ty),*) => {$(
        impl Record for $int {
            const WIDTH: usize = std::mem::size_of::<$int>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Self {
                <$int>::from_le_bytes(take(buf))
            }
        }
    )*};
}

le_record!(u64, u32, i64);

impl Record for (u64, u64) {
    const WIDTH: usize = 16;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Self {
        (u64::decode(buf), u64::decode(buf))
    }
}

/// Encodes a slice of records.
pub fn encode_all<R: Record>(records: &[R]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * R::WIDTH);
    for r in records {
        r.encode(&mut out);
    }
    out
}

/// Decodes a whole buffer of records (must be a multiple of the width).
pub fn decode_all<R: Record>(mut buf: &[u8]) -> Vec<R> {
    assert_eq!(buf.len() % R::WIDTH, 0, "truncated record buffer");
    let mut out = Vec::with_capacity(buf.len() / R::WIDTH);
    while !buf.is_empty() {
        out.push(R::decode(&mut buf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let v = vec![0u64, 1, u64::MAX, 0xdead_beef];
        assert_eq!(decode_all::<u64>(&encode_all(&v)), v);
    }

    #[test]
    fn u32_and_i64_roundtrip() {
        let v = vec![0u32, 7, u32::MAX];
        assert_eq!(decode_all::<u32>(&encode_all(&v)), v);
        let w = vec![-5i64, 0, i64::MAX, i64::MIN];
        assert_eq!(decode_all::<i64>(&encode_all(&w)), w);
    }

    #[test]
    fn pair_roundtrip() {
        let v = vec![(1u64, 2u64), (u64::MAX, 0)];
        assert_eq!(decode_all::<(u64, u64)>(&encode_all(&v)), v);
    }

    #[test]
    fn extremes_and_byte_order_roundtrip() {
        assert_eq!(decode_all::<u64>(&encode_all(&[u64::MAX])), [u64::MAX]);
        assert_eq!(decode_all::<i64>(&encode_all(&[i64::MIN])), [i64::MIN]);
        // Distinct halves, distinct bytes: a swapped half or a big-endian
        // byte order cannot round-trip by accident.
        let pair = (0x0102_0304_0506_0708u64, 0x1112_1314_1516_1718u64);
        let bytes = encode_all(&[pair]);
        assert_eq!(bytes[0], 0x08, "little-endian, first half first");
        assert_eq!(bytes[8], 0x18);
        assert_eq!(decode_all::<(u64, u64)>(&bytes), [pair]);
    }

    #[test]
    fn empty_roundtrip() {
        assert!(decode_all::<u64>(&encode_all::<u64>(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_buffer_rejected() {
        let bytes = encode_all(&[1u64, 2]);
        let _ = decode_all::<u64>(&bytes[..9]);
    }

    #[test]
    fn width_matches_encoding() {
        let one = encode_all(&[42u64]);
        assert_eq!(one.len(), <u64 as Record>::WIDTH);
    }
}
