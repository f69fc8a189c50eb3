//! The typed wire image: how an element splits into the two columns every
//! exchange chunk and every sample or splitter runs message carries.
//!
//! [`Wire`] splits an element into an order-preserving `u64` *image* and a
//! fixed-size *rest*, and joins the two back. A message of elements is the
//! image column in the packed frames of [`crate::buffer`] — so keys that
//! sit close together, as a sorted range's do, ship in the few bytes their
//! spread needs — followed by the rest column, raw. The element type
//! chooses its split at compile time; the runtime has one chunk layout and
//! never asks what an element is.
//!
//! The impls compose, one per type the sorter ships:
//! - `u64`: the key is its own image, and there is no rest;
//! - [`Desc<K>`]: the complement of `K`'s image, so descending order keeps
//!   an ascending image;
//! - `(K, V)`: `K`'s image, and `V` beside `K`'s rest;
//! - [`FixedStr<N>`]: a constant image (a width-0 frame) and the string as
//!   its rest.
//!
//! `pgxd-core` adds its provenance item and its record wrapper, each the
//! image of its key plus what rides along. A type with no impl does not go
//! through the typed exchange; only the untyped
//! [`exchange_by_offsets`](crate::machine::MachineCtx::exchange_by_offsets)
//! ships one, behind a constant image.

use crate::buffer;
use pgxd_algos::{Desc, FixedStr};
use std::mem::MaybeUninit;

mod seal {
    /// The last argument of [`Wire::decode`](super::Wire::decode): a type
    /// that only `pgxd` can name, so only `pgxd` can override the method.
    pub struct Sealed;
}
pub(crate) use seal::Sealed;

/// An element as an order-preserving `u64` image plus a fixed-size rest.
///
/// Contract: `join(x.image(), x.rest()) == x`, and `a ≤ b ⇒ image(a) ≤
/// image(b)` in the element's own order. The frames would round-trip any
/// image; order preservation is what keeps a sorted range's images close.
pub trait Wire: Copy + Send + Sync + 'static {
    /// What travels raw beside the image.
    type Rest: Copy + Send + Sync + 'static;

    /// The element's `u64` image.
    fn image(&self) -> u64;

    /// Everything the image does not carry.
    fn rest(&self) -> Self::Rest;

    /// The element with this image and rest.
    fn join(image: u64, rest: Self::Rest) -> Self;

    /// The image column of `items`, gathered into `scratch`.
    fn images<'a>(items: &'a [Self], scratch: &'a mut Vec<u64>) -> &'a [u64] {
        scratch.clear();
        scratch.extend(items.iter().map(Self::image));
        scratch
    }

    /// Writes the elements of a chunk — its image column `frames` and its
    /// rest column `rest` — into the first `rest.len()` slots of `out`,
    /// unpacking the images into `scratch` first. Panics, naming the frame,
    /// when the rest column does not hold one element per key or the keys
    /// run past `out`. The exchange takes the slots as initialised on that
    /// promise, so only `pgxd` can override this method: outside the crate
    /// the `Sealed` argument cannot be named.
    fn decode(
        frames: &[u8],
        rest: &[Self::Rest],
        out: &mut [MaybeUninit<Self>],
        scratch: &mut Vec<u64>,
        _: Sealed,
    ) {
        let keys = rest.len().min(out.len());
        if scratch.len() < keys {
            scratch.resize(keys, 0);
        }
        let images = &mut scratch[..keys];
        buffer::unpack_column(frames, rest.len(), images);
        for ((slot, &image), &rest) in out.iter_mut().zip(images.iter()).zip(rest) {
            slot.write(Self::join(image, rest));
        }
    }
}

/// A key is its own image: both slice methods work on the keys in place,
/// so a `u64` range packs, and a `u64` chunk unpacks, with no copy.
impl Wire for u64 {
    type Rest = ();

    fn image(&self) -> u64 {
        *self
    }

    fn rest(&self) {}

    fn join(image: u64, (): ()) -> u64 {
        image
    }

    fn images<'a>(items: &'a [u64], _: &'a mut Vec<u64>) -> &'a [u64] {
        items
    }

    fn decode(
        frames: &[u8],
        rest: &[()],
        out: &mut [MaybeUninit<u64>],
        _: &mut Vec<u64>,
        _: Sealed,
    ) {
        buffer::unpack_column_uninit(frames, rest.len(), out);
    }
}

impl<K: Wire> Wire for Desc<K> {
    type Rest = K::Rest;

    fn image(&self) -> u64 {
        !self.0.image()
    }

    fn rest(&self) -> K::Rest {
        self.0.rest()
    }

    fn join(image: u64, rest: K::Rest) -> Self {
        Desc(K::join(!image, rest))
    }
}

impl<K: Wire, V: Copy + Send + Sync + 'static> Wire for (K, V) {
    type Rest = (K::Rest, V);

    fn image(&self) -> u64 {
        self.0.image()
    }

    fn rest(&self) -> Self::Rest {
        (self.0.rest(), self.1)
    }

    fn join(image: u64, (rest, value): Self::Rest) -> Self {
        (K::join(image, rest), value)
    }
}

/// Strings have no `u64` image that keeps their order without a rest, so
/// they ship whole behind a constant one.
impl<const N: usize> Wire for FixedStr<N> {
    type Rest = Self;

    fn image(&self) -> u64 {
        0
    }

    fn rest(&self) -> Self {
        *self
    }

    fn join(_: u64, rest: Self) -> Self {
        rest
    }
}

/// Any `T` behind a constant image: how the untyped
/// [`exchange_by_offsets`](crate::machine::MachineCtx::exchange_by_offsets)
/// ships an element type that has no [`Wire`] impl. `repr(transparent)`,
/// so a slice of `T` is a slice of `Opaque<T>`.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub(crate) struct Opaque<T>(pub(crate) T);

impl<T: Copy + Send + Sync + 'static> Wire for Opaque<T> {
    type Rest = T;

    fn image(&self) -> u64 {
        0
    }

    fn rest(&self) -> T {
        self.0
    }

    fn join(_: u64, rest: T) -> Self {
        Opaque(rest)
    }
}
