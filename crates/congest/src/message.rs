//! Message payloads and CONGEST bit accounting.

/// A message payload with an explicit size in bits.
///
/// The CONGEST model allows `B = O(log n)` bits per message. Protocols
/// declare how many bits each payload occupies; the simulator records the
/// maximum observed size and (optionally) enforces a bandwidth limit.
///
/// For integers we count *significant* bits of the value — a node
/// identifier `< n` therefore automatically costs `<= ceil(log2 n)` bits,
/// matching the paper's convention that a message can describe "constant
/// many nodes or edges and values polynomially bounded in n".
pub trait Message: Clone + std::fmt::Debug {
    /// Size of this payload in bits.
    fn bits(&self) -> usize;
}

impl Message for () {
    fn bits(&self) -> usize {
        // A content-free "ping" still occupies one slot on the wire.
        1
    }
}

impl Message for bool {
    fn bits(&self) -> usize {
        1
    }
}

macro_rules! impl_message_for_uint {
    ($($t:ty),*) => {
        $(
            impl Message for $t {
                fn bits(&self) -> usize {
                    (<$t>::BITS - self.leading_zeros()).max(1) as usize
                }
            }
        )*
    };
}

impl_message_for_uint!(u8, u16, u32, u64, usize);

impl<A: Message, B: Message> Message for (A, B) {
    fn bits(&self) -> usize {
        self.0.bits() + self.1.bits()
    }
}

impl<A: Message, B: Message, C: Message> Message for (A, B, C) {
    fn bits(&self) -> usize {
        self.0.bits() + self.1.bits() + self.2.bits()
    }
}

impl<T: Message> Message for Option<T> {
    fn bits(&self) -> usize {
        1 + self.as_ref().map_or(0, Message::bits)
    }
}

/// A fixed-width bit vector used to run many 1-bit protocol executions in
/// parallel inside one CONGEST message (the trick of Lemma 2.7: `Θ(log n)`
/// independent executions of a 1-bit algorithm fit in one `O(log n)`-bit
/// message).
///
/// Widths up to 128 bits are stored inline, so creating, cloning and
/// dropping such a vector never touches the heap; wider vectors keep
/// their words in one heap allocation. Either way the value is 32 bytes.
///
/// # Example
///
/// ```
/// use congest_sim::{Message, PackedBits};
///
/// let mut b = PackedBits::new(10);
/// b.set(3, true);
/// b.set(9, true);
/// assert!(b.get(3) && b.get(9) && !b.get(4));
/// assert_eq!(b.bits(), 10);
/// assert_eq!(b.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PackedBits {
    width: usize,
    /// Bits past `width` are always zero, so the derived `Eq` compares
    /// exactly the vector's bits.
    words: Words,
}

/// The words of a [`PackedBits`]; which variant is a function of the
/// width alone.
#[derive(Clone, PartialEq, Eq)]
enum Words {
    /// Widths up to [`INLINE_BITS`].
    Inline([u64; 2]),
    /// Wider vectors: `width.div_ceil(64)` words.
    Heap(Box<[u64]>),
}

/// The widest [`PackedBits`] kept without a heap allocation.
const INLINE_BITS: usize = 128;

impl PackedBits {
    /// Creates an all-zero bit vector of the given width.
    pub fn new(width: usize) -> PackedBits {
        let words = if width <= INLINE_BITS {
            Words::Inline([0; 2])
        } else {
            Words::Heap(vec![0; width.div_ceil(64)].into_boxed_slice())
        };
        PackedBits { width, words }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// Number of bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of range {}", self.width);
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.width, "bit index {i} out of range {}", self.width);
        let word = &mut self.words_mut()[i / 64];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND with another vector of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn and_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.width, other.width, "width mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// Bitwise OR with another vector of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn or_assign(&mut self, other: &PackedBits) {
        assert_eq!(self.width, other.width, "width mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        let (w, word) = self.words().iter().enumerate().find(|(_, w)| **w != 0)?;
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// An all-ones vector of the given width.
    pub fn ones(width: usize) -> PackedBits {
        let mut b = PackedBits::new(width);
        for (w, word) in b.words_mut().iter_mut().enumerate() {
            let live = width.saturating_sub(w * 64);
            *word = if live >= 64 {
                u64::MAX
            } else {
                (1 << live) - 1
            };
        }
        b
    }
}

impl Message for PackedBits {
    fn bits(&self) -> usize {
        self.width
    }
}

impl std::fmt::Debug for PackedBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedBits[")?;
        for i in 0..self.width {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_bool_bits() {
        assert_eq!(().bits(), 1);
        assert_eq!(true.bits(), 1);
        assert_eq!(false.bits(), 1);
    }

    #[test]
    fn integer_bits_are_significant_bits() {
        assert_eq!(0u32.bits(), 1);
        assert_eq!(1u32.bits(), 1);
        assert_eq!(2u32.bits(), 2);
        assert_eq!(255u8.bits(), 8);
        assert_eq!(1023u64.bits(), 10);
        assert_eq!((1usize << 20).bits(), 21);
    }

    #[test]
    fn tuple_and_option_bits() {
        assert_eq!((3u32, 7u32).bits(), 2 + 3);
        assert_eq!((1u32, 1u32, 1u32).bits(), 3);
        assert_eq!(Some(7u32).bits(), 4);
        assert_eq!(None::<u32>.bits(), 1);
    }

    #[test]
    fn packed_bits_roundtrip() {
        let mut b = PackedBits::new(130);
        for i in (0..130).step_by(7) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 7 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), 130 / 7 + 1);
        assert_eq!(b.first_one(), Some(0));
        b.set(0, false);
        assert_eq!(b.first_one(), Some(7));
    }

    #[test]
    fn packed_bits_logic_ops() {
        let mut a = PackedBits::new(8);
        a.set(1, true);
        a.set(3, true);
        let mut b = PackedBits::new(8);
        b.set(3, true);
        b.set(5, true);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.count_ones(), 1);
        assert!(and.get(3));
        a.or_assign(&b);
        assert_eq!(a.count_ones(), 3);
    }

    #[test]
    fn packed_bits_ones_and_empty() {
        assert_eq!(PackedBits::ones(9).count_ones(), 9);
        assert_eq!(PackedBits::new(0).first_one(), None);
        assert_eq!(PackedBits::new(64).first_one(), None);
    }

    /// Every operation agrees with a `Vec<bool>` model, at inline and heap
    /// widths and around each word boundary; vectors that reach the same
    /// bits by different operations are equal, so no operation leaves a
    /// stale bit past the width.
    #[test]
    fn packed_bits_match_a_bool_vector_model() {
        fn check(b: &PackedBits, model: &[bool]) {
            let width = model.len();
            assert_eq!((b.width(), b.bits()), (width, width));
            for (i, &m) in model.iter().enumerate() {
                assert_eq!(b.get(i), m, "bit {i} of {width}");
            }
            assert_eq!(b.count_ones(), model.iter().filter(|&&m| m).count());
            assert_eq!(b.first_one(), model.iter().position(|&m| m));
            let text: String = model.iter().map(|&m| if m { '1' } else { '0' }).collect();
            assert_eq!(format!("{b:?}"), format!("PackedBits[{text}]"));
        }
        fn from_model(model: &[bool]) -> PackedBits {
            let mut b = PackedBits::new(model.len());
            for (i, &m) in model.iter().enumerate() {
                if m {
                    b.set(i, true);
                }
            }
            b
        }
        assert!(std::mem::size_of::<PackedBits>() <= 32);
        let mut draws = 0u64;
        let mut coin = || {
            draws += 1;
            crate::rng::splitmix64(draws) & 1 == 1
        };
        for width in [0, 1, 63, 64, 65, 127, 128, 129, 200] {
            let zeros = vec![false; width];
            let ones = vec![true; width];
            check(&PackedBits::new(width), &zeros);
            check(&PackedBits::ones(width), &ones);
            assert_eq!(PackedBits::ones(width), from_model(&ones), "width {width}");
            assert_ne!(PackedBits::new(width), PackedBits::new(width + 1));

            let a: Vec<bool> = (0..width).map(|_| coin()).collect();
            let b: Vec<bool> = (0..width).map(|_| coin()).collect();
            let (pa, pb) = (from_model(&a), from_model(&b));
            check(&pa, &a);
            // Clearing bits of an all-ones vector reaches the same value
            // as setting bits of an all-zero one.
            let mut down = PackedBits::ones(width);
            for (i, &m) in a.iter().enumerate() {
                down.set(i, m);
            }
            check(&down, &a);
            assert_eq!(down, pa, "width {width}");

            let and: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            let mut pand = pa.clone();
            pand.and_assign(&pb);
            check(&pand, &and);
            assert_eq!(pand, from_model(&and), "width {width}");
            let or: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            let mut por = pa.clone();
            por.or_assign(&pb);
            check(&por, &or);
            assert_eq!(por, from_model(&or), "width {width}");

            let mut masked = PackedBits::ones(width);
            masked.and_assign(&pa);
            assert_eq!(masked, pa, "width {width}");
            let mut full = pa.clone();
            full.or_assign(&PackedBits::ones(width));
            assert_eq!(full, PackedBits::ones(width), "width {width}");
            for (i, &m) in a.iter().enumerate() {
                let mut flipped = pa.clone();
                flipped.set(i, !m);
                assert_ne!(flipped, pa, "bit {i} of {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packed_bits_bounds_checked() {
        PackedBits::new(4).get(4);
    }

    #[test]
    fn debug_is_nonempty() {
        let b = PackedBits::new(3);
        assert_eq!(format!("{b:?}"), "PackedBits[000]");
    }
}
