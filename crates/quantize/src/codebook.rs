//! The error-bounded codebook `C` (paper Definition 3.2).

use ppq_geo::Point;

/// A codebook: an append-only list of 2-D codewords.
///
/// Codeword indices (`b_i^t` in the paper) are `u32`; the summary-size
/// accounting charges `ceil(log2 |C|)` bits per stored index, the width
/// `ppq_sindex::bits` packs them at when the summary is serialized.
#[derive(Clone, Debug, Default)]
pub struct Codebook {
    words: Vec<Point>,
}

impl Codebook {
    pub fn new() -> Self {
        Codebook { words: Vec::new() }
    }

    pub fn from_words(words: Vec<Point>) -> Self {
        Codebook { words }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Append a codeword, returning its index.
    #[inline]
    pub fn push(&mut self, w: Point) -> u32 {
        let idx = self.words.len() as u32;
        self.words.push(w);
        idx
    }

    /// The codeword assigned to index `b` — `C(b)` in the paper.
    #[inline]
    pub fn word(&self, b: u32) -> Point {
        self.words[b as usize]
    }

    #[inline]
    pub fn words(&self) -> &[Point] {
        &self.words
    }

    /// Exhaustive nearest-codeword search. The hot path uses
    /// [`crate::GridNN`] instead; this is the reference implementation and
    /// the fallback for tiny codebooks.
    pub fn nearest(&self, p: &Point) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (i, w) in self.words.iter().enumerate() {
            let d2 = p.dist2(w);
            if best.is_none_or(|(_, bd2)| d2 < bd2) {
                best = Some((i as u32, d2));
            }
        }
        best.map(|(i, d2)| (i, d2.sqrt()))
    }

    /// Bits needed to address a codeword: `ceil(log2 |C|)`, minimum 1.
    pub fn index_bits(&self) -> u32 {
        index_bits_for(self.words.len())
    }

    /// Serialized size of the codebook itself: two `f64` per codeword.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 2 * std::mem::size_of::<f64>()
    }
}

/// Bits needed to address `n` entries: `ceil(log2 n)`, minimum 1.
pub fn index_bits_for(n: usize) -> u32 {
    match n {
        0..=2 => 1,
        n => (usize::BITS - (n - 1).leading_zeros()).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut cb = Codebook::new();
        assert!(cb.is_empty());
        let a = cb.push(Point::new(1.0, 1.0));
        let b = cb.push(Point::new(-1.0, 2.0));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.word(1), Point::new(-1.0, 2.0));
    }

    #[test]
    fn nearest_exhaustive() {
        let cb = Codebook::from_words(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ]);
        let (idx, d) = cb.nearest(&Point::new(9.0, 1.0)).unwrap();
        assert_eq!(idx, 1);
        assert!((d - 2.0f64.sqrt()).abs() < 1e-12);
        assert!(Codebook::new().nearest(&Point::ORIGIN).is_none());
    }

    #[test]
    fn index_bit_widths() {
        assert_eq!(index_bits_for(0), 1);
        assert_eq!(index_bits_for(1), 1);
        assert_eq!(index_bits_for(2), 1);
        assert_eq!(index_bits_for(3), 2);
        assert_eq!(index_bits_for(4), 2);
        assert_eq!(index_bits_for(5), 3);
        assert_eq!(index_bits_for(256), 8);
        assert_eq!(index_bits_for(257), 9);
    }

    #[test]
    fn size_accounting() {
        let mut cb = Codebook::new();
        cb.push(Point::ORIGIN);
        cb.push(Point::ORIGIN);
        assert_eq!(cb.size_bytes(), 32);
    }
}
