//! Inline status-code lists: a visit record's HTTP statuses without a
//! heap block.
//!
//! Every [`VisitOutcome`](crate::VisitOutcome) carries its first- and
//! third-party response codes. As two `Vec<u16>` they were two
//! allocations per visit and two frees when a campaign drops its
//! records, the largest per-visit cost the allocator saw. A
//! [`StatusCodes<N>`] keeps up to `N` codes in place and moves to the
//! heap only beyond `N`. The record's inline sizes come from the
//! population's request ranges ([`FIRST_PARTY_INLINE`],
//! [`THIRD_PARTY_INLINE`]), so a generated site's visits never spill;
//! the heap case serves hand-built sites, whose request counts are any
//! `u8`.

use crate::population::{FIRST_PARTY_REQUESTS, THIRD_PARTY_REQUESTS};
use std::fmt;
use std::ops::Deref;

/// Inline capacity of a record's first-party codes: the most first-party
/// requests a generated site makes.
pub const FIRST_PARTY_INLINE: usize = FIRST_PARTY_REQUESTS.end as usize - 1;

/// Inline capacity of a record's third-party codes: the most third-party
/// requests a generated site makes.
pub const THIRD_PARTY_INLINE: usize = THIRD_PARTY_REQUESTS.end as usize - 1;

/// A list of HTTP status codes that holds up to `N` codes in place and
/// moves them to the heap only when a push would exceed `N`.
///
/// It reads as a `[u16]` (it derefs to one and `&codes` iterates as
/// `&u16`); equality and `Debug` see only the codes, so
/// an inline list and a spilled one with the same codes are equal and print
/// like a `Vec<u16>`.
#[derive(Clone)]
pub struct StatusCodes<const N: usize>(Repr<N>);

#[derive(Clone)]
enum Repr<const N: usize> {
    /// The first `len` entries of `codes`.
    Inline { len: u8, codes: [u16; N] },
    /// More than `N` codes.
    Heap(Vec<u16>),
}

impl<const N: usize> StatusCodes<N> {
    /// Fails the build of a list whose inline length would not fit its
    /// `u8` counter.
    const LEN_FITS: () = assert!(N <= u8::MAX as usize, "inline length must fit a u8");

    /// An empty list, held inline.
    pub const fn new() -> Self {
        let () = Self::LEN_FITS;
        Self(Repr::Inline {
            len: 0,
            codes: [0; N],
        })
    }

    /// Appends `code`, moving the list to the heap if it already holds
    /// `N` codes inline.
    pub fn push(&mut self, code: u16) {
        match &mut self.0 {
            Repr::Inline { len, codes } if usize::from(*len) < N => {
                codes[usize::from(*len)] = code;
                *len += 1;
            }
            Repr::Inline { codes, .. } => {
                let mut heap = Vec::with_capacity(2 * (N + 1));
                heap.extend_from_slice(codes);
                heap.push(code);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(code),
        }
    }

    /// Whether the codes live on the heap (more than `N` of them).
    // lint: allow(unread-pub-item) test reference: allocations.rs pins generated sites' codes inline with it
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl<const N: usize> Default for StatusCodes<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Deref for StatusCodes<N> {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        match &self.0 {
            Repr::Inline { len, codes } => &codes[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<'a, const N: usize> IntoIterator for &'a StatusCodes<N> {
    type Item = &'a u16;
    type IntoIter = std::slice::Iter<'a, u16>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const N: usize> FromIterator<u16> for StatusCodes<N> {
    fn from_iter<I: IntoIterator<Item = u16>>(codes: I) -> Self {
        let mut list = Self::new();
        for code in codes {
            list.push(code);
        }
        list
    }
}

impl<const N: usize> From<Vec<u16>> for StatusCodes<N> {
    fn from(codes: Vec<u16>) -> Self {
        codes.into_iter().collect()
    }
}

impl<const N: usize> PartialEq for StatusCodes<N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<Vec<u16>> for StatusCodes<N> {
    fn eq(&self, other: &Vec<u16>) -> bool {
        **self == **other
    }
}

/// Prints as the `[u16]` it holds, exactly as a `Vec<u16>` does.
impl<const N: usize> fmt::Debug for StatusCodes<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Codes = StatusCodes<5>;

    #[test]
    fn the_record_sizes_cover_the_population_ranges() {
        assert_eq!((FIRST_PARTY_INLINE, THIRD_PARTY_INLINE), (17, 44));
    }

    #[test]
    fn a_list_spills_only_past_its_inline_size() {
        let mut codes = Codes::new();
        for code in 0..5 {
            codes.push(200 + code);
            assert!(!codes.spilled());
        }
        codes.push(205);
        assert!(codes.spilled());
        assert_eq!(*codes, [200, 201, 202, 203, 204, 205]);
        assert!(!Codes::from(vec![1; 5]).spilled());
        assert!(Codes::from(vec![1; 6]).spilled());
    }

    /// Pushes, reads, compares, clones and prints `want` through a
    /// `StatusCodes<N>` as through a `Vec<u16>`; `cut` picks a prefix
    /// that must compare unequal unless it is all of `want`.
    fn behaves_as_a_vec<const N: usize>(want: &[u16], cut: usize) {
        let mut codes = StatusCodes::<N>::new();
        let mut vec = Vec::new();
        for &code in want {
            codes.push(code);
            vec.push(code);
            assert_eq!(&*codes, &vec[..]);
        }
        assert_eq!(codes.spilled(), want.len() > N);
        assert!(codes == vec);
        let mut walked = Vec::new();
        for &code in &codes {
            walked.push(code);
        }
        assert_eq!(walked, want);
        assert_eq!(format!("{codes:?}"), format!("{vec:?}"));
        assert_eq!(format!("{codes:#?}"), format!("{vec:#?}"));
        let copy = codes.clone();
        assert!(copy == codes);
        assert_eq!(copy.spilled(), codes.spilled());
        // A list built from a vector equals one built by pushes.
        let from_vec: StatusCodes<N> = vec.clone().into();
        assert!(from_vec == codes);
        // Lists with different codes differ, whatever their storage.
        let prefix: StatusCodes<N> = want[..cut.min(want.len())].iter().copied().collect();
        assert_eq!(prefix == codes, cut >= want.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A small inline size, so most cases cross the boundary, and the
        /// record's two sizes.
        #[test]
        fn a_status_list_behaves_as_a_vec(
            want in proptest::collection::vec(0u16..=u16::MAX, 0..=300usize),
            cut in 0usize..=300,
        ) {
            behaves_as_a_vec::<5>(&want, cut);
            behaves_as_a_vec::<FIRST_PARTY_INLINE>(&want, cut);
            behaves_as_a_vec::<THIRD_PARTY_INLINE>(&want, cut);
        }
    }
}
