//! Message payloads, tags, and the application [`Element`] type.
//!
//! A [`Payload`] is an owned byte buffer, and that is the one wire type:
//! control words, the inspector's index lists and application data alike
//! travel as the little-endian bytes [`Element::pack`] writes, so the byte
//! size the network cost model charges is what a wire format carries, for
//! any element type. [`Element::unpack`] is where a typed view of a
//! payload is checked.

/// A small integer message tag, used to match sends with receives.
///
/// Tags below [`Tag::RESERVED_BASE`] are free for applications; the runtime
/// library uses the reserved range for its internal protocols (barrier,
/// load-balancing control, redistribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// First tag value reserved for the runtime's internal protocols.
    pub const RESERVED_BASE: u32 = 0xF000_0000;

    /// Whether this tag is in the runtime-reserved range.
    #[inline]
    pub fn is_reserved(self) -> bool {
        self.0 >= Self::RESERVED_BASE
    }

    /// A reserved tag at `RESERVED_BASE + offset`.
    #[inline]
    pub const fn reserved(offset: u32) -> Tag {
        Tag(Self::RESERVED_BASE + offset)
    }
}

/// A message payload: one owned buffer of bytes.
///
/// The transports move bytes and nothing else; typed data — index lists,
/// control words, array blocks — goes through [`Element::pack`] and
/// [`Element::unpack`] (or their in-place forms), so a payload's size is
/// the same number on every backend and in the network cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload(Vec<u8>);

impl Payload {
    /// No data: a pure synchronization signal. Spelled like a variant
    /// because callers written against the former enum use it as a value.
    #[allow(non_upper_case_globals)]
    pub const Empty: Payload = Payload(Vec::new());

    /// A payload of `v`'s `f64`s, as [`Element::pack`] writes them.
    pub fn from_f64(v: Vec<f64>) -> Self {
        f64::pack(&v)
    }

    /// A payload of raw bytes.
    #[inline]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Payload(bytes)
    }

    /// The payload's bytes, handed back without a copy.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// The payload's bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Number of wire bytes this payload occupies (what the bandwidth term of
    /// the network model charges).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload carries no data.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Per-vertex application state that the runtime can move between ranks.
///
/// This is the application-facing half of the data model: the runtime owns
/// partitioning, ghost exchange and redistribution, and stays generic over
/// *what* a data item is — a plain `f64` (the paper's arrays), a
/// single-precision `f32`, an index, or a fixed-size multi-field record
/// like `[f64; K]`. An element is `Copy`, fixed-size, and serializes to a
/// little-endian byte string; [`Element::pack`]/[`Element::unpack`] move
/// whole slices through a [`Payload`], so the wire size the
/// network cost model charges is exactly `len × SIZE_BYTES`.
///
/// On top of the three required per-element items sit the **bulk codecs**
/// [`Element::pack_into`] and [`Element::unpack_into`]: slice-level
/// pack/unpack with default implementations that loop over
/// [`Element::write_bytes`]/[`Element::read_bytes`]. The built-in elements
/// (`f64`, `f32`, `u32`, `u64`, `[f64; K]`) override them with bulk
/// little-endian copies, so a whole send segment is one memcpy-class
/// operation and a received payload decodes straight into its destination
/// slice — this is what makes the executor's steady-state communication
/// path allocation-free. An override must be **bitwise identical** to the
/// default loop (the wire format is the per-element format, concatenated);
/// `tests/transport_codecs.rs` pins this property for the built-ins.
///
/// Implementations are provided for `f64`, `f32`, `u32`, `u64` and
/// `[f64; K]`. A custom element only needs the three required items
/// (override the bulk pair too if your element is a plain fixed-size
/// record and the transport shows up in profiles):
///
/// ```
/// use stance_sim::{Element, Payload};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// struct Particle { pos: f64, vel: f64 }
///
/// impl Element for Particle {
///     const SIZE_BYTES: usize = 16;
///     fn zero() -> Self { Particle { pos: 0.0, vel: 0.0 } }
///     fn write_bytes(&self, out: &mut Vec<u8>) {
///         out.extend_from_slice(&self.pos.to_le_bytes());
///         out.extend_from_slice(&self.vel.to_le_bytes());
///     }
///     fn read_bytes(bytes: &[u8]) -> Self {
///         Particle {
///             pos: f64::from_le_bytes(bytes[..8].try_into().unwrap()),
///             vel: f64::from_le_bytes(bytes[8..].try_into().unwrap()),
///         }
///     }
/// }
///
/// let sent = vec![Particle { pos: 1.5, vel: -2.0 }; 3];
/// let payload = Particle::pack(&sent);
/// assert_eq!(payload.size_bytes(), 48);
/// assert_eq!(Particle::unpack(payload), sent);
/// ```
pub trait Element: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Wire size of one element in bytes. Must be nonzero and must match
    /// what [`Element::write_bytes`] appends.
    const SIZE_BYTES: usize;

    /// The additive identity / fill value (used for fresh ghost slots and
    /// uninitialized blocks during redistribution).
    fn zero() -> Self;

    /// Appends this element's exactly-`SIZE_BYTES`-long wire form.
    fn write_bytes(&self, out: &mut Vec<u8>);

    /// Reads one element back from exactly `SIZE_BYTES` bytes.
    fn read_bytes(bytes: &[u8]) -> Self;

    /// Appends the wire form of a whole slice (`values.len() × SIZE_BYTES`
    /// bytes) to `out`.
    ///
    /// The default loops over [`Element::write_bytes`] after one capacity
    /// reservation. Overrides must append **byte-for-byte** the same output
    /// as that loop — the bulk codec changes speed, never the wire format.
    fn pack_into(values: &[Self], out: &mut Vec<u8>) {
        out.reserve(values.len() * Self::SIZE_BYTES);
        for v in values {
            v.write_bytes(out);
        }
    }

    /// Decodes exactly `out.len()` elements from `bytes` directly into
    /// `out`, with no intermediate allocation. This is what the executor
    /// uses to land received payloads straight in the ghost region.
    ///
    /// # Panics
    /// Panics if `bytes.len() != out.len() × SIZE_BYTES` — a mismatched
    /// segment is a protocol bug.
    fn unpack_into(bytes: &[u8], out: &mut [Self]) {
        assert!(Self::SIZE_BYTES > 0, "zero-size elements cannot travel");
        assert_eq!(
            bytes.len(),
            out.len() * Self::SIZE_BYTES,
            "bulk unpack of {} bytes into {} {}-byte elements",
            bytes.len(),
            out.len(),
            Self::SIZE_BYTES
        );
        for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(Self::SIZE_BYTES)) {
            *v = Self::read_bytes(chunk);
        }
    }

    /// Packs a slice into one wire message (one [`Element::pack_into`] into
    /// a fresh buffer).
    fn pack(values: &[Self]) -> Payload {
        let mut bytes = Vec::new();
        Self::pack_into(values, &mut bytes);
        debug_assert_eq!(bytes.len(), values.len() * Self::SIZE_BYTES);
        Payload::from_bytes(bytes)
    }

    /// Unpacks a message produced by [`Element::pack`].
    ///
    /// # Panics
    /// Panics if the payload's length is not a multiple of `SIZE_BYTES` —
    /// a protocol bug.
    fn unpack(payload: Payload) -> Vec<Self> {
        assert!(Self::SIZE_BYTES > 0, "zero-size elements cannot travel");
        let bytes = payload.into_bytes();
        assert_eq!(
            bytes.len() % Self::SIZE_BYTES,
            0,
            "payload of {} bytes is not a whole number of {}-byte elements",
            bytes.len(),
            Self::SIZE_BYTES
        );
        let mut out = vec![Self::zero(); bytes.len() / Self::SIZE_BYTES];
        Self::unpack_into(&bytes, &mut out);
        out
    }
}

/// The stack stage the built-in elements encode through (a multiple of
/// every scalar's width).
const STAGE_BYTES: usize = 4096;

macro_rules! scalar_element {
    ($($t:ty => $zero:expr, $bytes:expr;)*) => {$(
        impl Element for $t {
            const SIZE_BYTES: usize = $bytes;
            #[inline]
            fn zero() -> Self {
                $zero
            }
            #[inline]
            fn write_bytes(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_bytes(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exact element chunk"))
            }
            // Bulk override: fixed-width copies into a 4 KiB stack stage
            // (a loop the compiler turns into a straight memcpy on
            // little-endian targets), appended with one `extend_from_slice`
            // each — no per-element capacity checks, and no zero fill of
            // `out` first: a `resize` would pass over a large message twice
            // (≈ 1.5× the time at 2.8 MB).
            fn pack_into(values: &[Self], out: &mut Vec<u8>) {
                out.reserve(values.len() * $bytes);
                let mut stage = [0u8; STAGE_BYTES];
                for part in values.chunks(STAGE_BYTES / $bytes) {
                    let staged = &mut stage[..part.len() * $bytes];
                    for (chunk, v) in staged.chunks_exact_mut($bytes).zip(part) {
                        chunk.copy_from_slice(&v.to_le_bytes());
                    }
                    out.extend_from_slice(staged);
                }
            }
            fn unpack_into(bytes: &[u8], out: &mut [Self]) {
                assert_eq!(
                    bytes.len(),
                    out.len() * $bytes,
                    "bulk unpack of {} bytes into {} {}-byte elements",
                    bytes.len(),
                    out.len(),
                    $bytes
                );
                for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact($bytes)) {
                    *v = <$t>::from_le_bytes(chunk.try_into().expect("exact element chunk"));
                }
            }
        }
    )*};
}

scalar_element! {
    f64 => 0.0, 8;
    f32 => 0.0, 4;
    u32 => 0, 4;
    u64 => 0, 8;
}

impl<const K: usize> Element for [f64; K] {
    const SIZE_BYTES: usize = 8 * K;

    #[inline]
    fn zero() -> Self {
        [0.0; K]
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        for c in self {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn read_bytes(bytes: &[u8]) -> Self {
        assert_eq!(
            bytes.len(),
            Self::SIZE_BYTES,
            "array element expects exactly {} bytes, got {}",
            Self::SIZE_BYTES,
            bytes.len()
        );
        let mut a = [0.0; K];
        for (c, chunk) in a.iter_mut().zip(bytes.chunks_exact(8)) {
            *c = f64::from_le_bytes(chunk.try_into().expect("exact component chunk"));
        }
        a
    }

    // Bulk override: the array slice is its flat `f64` component stream,
    // so the scalar codec packs it. (An iterator `flatten` instead of
    // `as_flattened` defeats the vectorizer and halves throughput.)
    fn pack_into(values: &[Self], out: &mut Vec<u8>) {
        f64::pack_into(values.as_flattened(), out);
    }

    fn unpack_into(bytes: &[u8], out: &mut [Self]) {
        assert!(Self::SIZE_BYTES > 0, "zero-size elements cannot travel");
        assert_eq!(
            bytes.len(),
            out.len() * Self::SIZE_BYTES,
            "bulk unpack of {} bytes into {} {}-byte elements",
            bytes.len(),
            out.len(),
            Self::SIZE_BYTES
        );
        let flat: &mut [f64] = out.as_flattened_mut();
        for (c, chunk) in flat.iter_mut().zip(bytes.chunks_exact(8)) {
            *c = f64::from_le_bytes(chunk.try_into().expect("exact component chunk"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Payload::Empty.size_bytes(), 0);
        assert_eq!(f64::pack(&[0.0; 3]).size_bytes(), 24);
        assert_eq!(u32::pack(&[0; 3]).size_bytes(), 12);
        assert_eq!(u64::pack(&[0; 3]).size_bytes(), 24);
        assert_eq!(Payload::from_bytes(vec![0; 3]).size_bytes(), 3);
    }

    #[test]
    fn empty_has_one_representation() {
        assert_eq!(Payload::Empty, Payload::from_bytes(vec![]));
        assert_eq!(Payload::Empty, f64::pack(&[]));
    }

    #[test]
    fn element_round_trip() {
        fn rt<T: Element>(v: Vec<T>) {
            let p = T::pack(&v);
            assert_eq!(p.size_bytes(), v.len() * T::SIZE_BYTES);
            assert_eq!(T::unpack(p), v);
        }
        rt(vec![1.0f64, -2.5, f64::MIN_POSITIVE]);
        rt(vec![1.0f32, 2.0]);
        rt(vec![1u32, 2]);
        rt(vec![u64::MAX, 2]);
        rt(vec![[1.0f64, -4.0], [0.25, 1e-300]]);
        rt(vec![[7.0f64; 3]; 4]);
    }

    #[test]
    fn element_pack_is_bytes_payload() {
        let p = f64::pack(&[1.5]);
        assert_eq!(p.size_bytes(), 8);
        assert_eq!(p, Payload::from_bytes(1.5f64.to_le_bytes().to_vec()));
        assert_eq!(Payload::from_f64(vec![1.5]), p);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn element_unpack_rejects_ragged_payload() {
        let _ = f64::unpack(Payload::from_bytes(vec![0; 12]));
    }

    #[test]
    fn lengths_and_emptiness() {
        assert!(Payload::Empty.is_empty());
        assert!(Payload::from_bytes(vec![]).is_empty());
        assert!(!Payload::from_bytes(vec![1]).is_empty());
        assert_eq!(u32::pack(&[1, 2]).size_bytes(), 8);
    }

    #[test]
    fn bulk_codecs_match_per_element_loop() {
        fn check<T: Element>(values: &[T]) {
            // Reference: the per-element loop the defaults are defined by.
            let mut reference = Vec::new();
            for v in values {
                v.write_bytes(&mut reference);
            }
            // pack_into appends after existing content.
            let mut bulk = vec![0xAB, 0xCD];
            T::pack_into(values, &mut bulk);
            assert_eq!(&bulk[..2], &[0xAB, 0xCD]);
            assert_eq!(&bulk[2..], reference.as_slice());
            // unpack_into decodes in place; round-trip through write_bytes
            // compares bit patterns (works for NaN too).
            let mut out = vec![T::zero(); values.len()];
            T::unpack_into(&reference, &mut out);
            let mut rebuilt = Vec::new();
            for v in &out {
                v.write_bytes(&mut rebuilt);
            }
            assert_eq!(rebuilt, reference);
        }
        check::<f64>(&[1.5, -0.0, f64::INFINITY, f64::NAN, 1e-310]);
        check::<f32>(&[1.5, f32::NEG_INFINITY, f32::MIN_POSITIVE]);
        check::<u32>(&[0, 1, u32::MAX]);
        check::<u64>(&[7, u64::MAX]);
        check::<[f64; 3]>(&[[1.0, f64::NAN, -2.5], [0.0, -0.0, 4.0]]);
        check::<f64>(&[]);
        // Longer than the stack stage, ending mid-stage.
        let long: Vec<u32> = (0..3000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        check::<u32>(&long);
        let long: Vec<f64> = long.iter().map(|&i| f64::from(i) - 1e9).collect();
        check::<f64>(&long);
        check::<[f64; 3]>(
            &long
                .chunks_exact(3)
                .map(|c| [c[0], c[1], c[2]])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    #[should_panic(expected = "bulk unpack")]
    fn unpack_into_rejects_mismatched_lengths() {
        let mut out = [0.0f64; 2];
        f64::unpack_into(&[0u8; 8], &mut out);
    }

    #[test]
    fn round_trips() {
        assert_eq!(Payload::from_bytes(vec![3]).into_bytes(), vec![3]);
        assert_eq!(Payload::from_bytes(vec![3, 4]).as_bytes(), &[3, 4]);
    }

    #[test]
    fn reserved_tags() {
        assert!(!Tag(0).is_reserved());
        assert!(Tag::reserved(0).is_reserved());
        assert!(Tag::reserved(5) > Tag::reserved(0));
    }
}
