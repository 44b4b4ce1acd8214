//! Canonical Huffman coding over bytes.
//!
//! Used to compress the delta-encoded trajectory-ID list of a
//! [`crate::CompressedIdList`] (paper §5.1 cites the delta + Huffman
//! approach of the Torch search engine): the code is built from the
//! list's byte histogram and travels in front of its bit stream. The
//! implementation is a standard length-limited-free
//! canonical Huffman: build the code-length table from frequencies, assign
//! canonical codes, encode/decode bit streams.

use std::collections::BinaryHeap;

/// A canonical Huffman code over byte symbols.
#[derive(Clone, Debug)]
pub struct Huffman {
    /// Code length per symbol (0 = unused symbol).
    lengths: [u8; 256],
    /// Canonical code value per symbol (valid when length > 0).
    codes: [u32; 256],
    /// Symbols sorted by (length, symbol) — the canonical order.
    sorted_symbols: Vec<u8>,
    /// Per length `l`: the canonical code of the first symbol of that
    /// length (`u32::MAX` when no symbol has length `l`).
    first_code: [u32; MAX_CODE_LEN + 1],
    /// Per length `l`: index into `sorted_symbols` of that first symbol.
    first_index: [u16; MAX_CODE_LEN + 1],
    /// Per length `l`: number of symbols with that length.
    count: [u16; MAX_CODE_LEN + 1],
}

/// Codes never exceed the alphabet-size bound (≤ 255 merges), but the
/// decoder also guards the stream, so a generous cap is fine.
const MAX_CODE_LEN: usize = 32;

impl Huffman {
    /// Build from symbol frequencies (usually a histogram of the payload).
    /// Symbols with zero frequency get no code. At least one symbol must
    /// have nonzero frequency.
    pub fn from_frequencies(freq: &[u64; 256]) -> Huffman {
        Self::from_lengths(Self::code_lengths(freq))
    }

    /// Optimal code length per symbol for `freq` (0 = unused symbol).
    fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            id: usize, // tie-break for determinism
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for min-heap.
                other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let used: Vec<usize> = (0..256).filter(|&s| freq[s] > 0).collect();
        assert!(
            !used.is_empty(),
            "cannot build a Huffman code with no symbols"
        );

        let mut lengths = [0u8; 256];
        if used.len() == 1 {
            // Degenerate single-symbol alphabet: one-bit code.
            lengths[used[0]] = 1;
        } else {
            // Build the tree over (weight, id) nodes; parents get fresh ids.
            let mut heap = BinaryHeap::new();
            // children[id] = Some((left, right)) for internal nodes.
            let mut children: Vec<Option<(usize, usize)>> = vec![None; used.len()];
            let mut weights: Vec<u64> = Vec::with_capacity(used.len() * 2);
            for (i, &s) in used.iter().enumerate() {
                weights.push(freq[s]);
                heap.push(Node {
                    weight: freq[s],
                    id: i,
                });
            }
            while heap.len() > 1 {
                let a = heap.pop().unwrap();
                let b = heap.pop().unwrap();
                let id = weights.len();
                weights.push(a.weight + b.weight);
                children.push(Some((a.id, b.id)));
                heap.push(Node {
                    weight: a.weight + b.weight,
                    id,
                });
            }
            // Depth-first traversal to get code lengths.
            let root = heap.pop().unwrap().id;
            let mut stack = vec![(root, 0u8)];
            while let Some((id, depth)) = stack.pop() {
                match children.get(id).copied().flatten() {
                    Some((l, r)) => {
                        stack.push((l, depth + 1));
                        stack.push((r, depth + 1));
                    }
                    None => lengths[used[id]] = depth.max(1),
                }
            }
        }
        lengths
    }

    /// Build the canonical code from a code-length table.
    pub fn from_lengths(lengths: [u8; 256]) -> Huffman {
        // Canonical ordering: by (length, symbol).
        let mut sorted_symbols: Vec<u8> =
            (0..=255u8).filter(|&s| lengths[s as usize] > 0).collect();
        sorted_symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = [0u32; 256];
        let mut first_code = [u32::MAX; MAX_CODE_LEN + 1];
        let mut first_index = [0u16; MAX_CODE_LEN + 1];
        let mut count = [0u16; MAX_CODE_LEN + 1];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for (i, &s) in sorted_symbols.iter().enumerate() {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            codes[s as usize] = code;
            // Canonical codes of equal length are consecutive, so recording
            // the first (code, symbol index) per length gives an O(1)
            // decode step: symbol = sorted[first_index + (code - first_code)].
            if first_code[len as usize] == u32::MAX {
                first_code[len as usize] = code;
                first_index[len as usize] = i as u16;
            }
            count[len as usize] += 1;
            code += 1;
            prev_len = len;
        }
        Huffman {
            lengths,
            codes,
            sorted_symbols,
            first_code,
            first_index,
            count,
        }
    }

    /// Build the code for a byte histogram, or `None` when there is
    /// nothing to code (empty histogram) or the optimal code would need
    /// words longer than the decoder's accumulator (a Fibonacci-skewed
    /// histogram of several million bytes) — callers keep such payloads
    /// raw.
    pub fn for_histogram(freq: &[u64; 256]) -> Option<Huffman> {
        if freq.iter().all(|&f| f == 0) {
            return None;
        }
        let lengths = Self::code_lengths(freq);
        lengths
            .iter()
            .all(|&l| l as usize <= MAX_CODE_LEN)
            .then(|| Self::from_lengths(lengths))
    }

    /// Bits [`Self::encode_append`] would emit for `data`.
    pub fn encoded_bits(&self, data: &[u8]) -> usize {
        data.iter()
            .map(|&b| self.lengths[b as usize] as usize)
            .sum()
    }

    /// Encode `data`, appending to the bit stream `out` whose current
    /// length is `*bitpos` bits (MSB-first within each code and byte).
    pub fn encode_append(&self, data: &[u8], out: &mut Vec<u8>, bitpos: &mut usize) {
        for &b in data {
            let len = self.lengths[b as usize];
            assert!(len > 0, "symbol {b} has no code");
            let code = self.codes[b as usize];
            for k in (0..len).rev() {
                if bitpos.is_multiple_of(8) {
                    out.push(0);
                }
                if (code >> k) & 1 == 1 {
                    *out.last_mut().expect("pushed above") |= 1 << (7 - (*bitpos % 8));
                }
                *bitpos += 1;
            }
        }
    }

    /// Encode `data`; returns the bit stream and its exact bit length.
    pub fn encode(&self, data: &[u8]) -> (Vec<u8>, usize) {
        let mut out = Vec::with_capacity(data.len() / 2 + 1);
        let mut bitpos = 0usize;
        self.encode_append(data, &mut out, &mut bitpos);
        (out, bitpos)
    }

    /// Decode `n` symbols from a bit stream produced by [`Self::encode`].
    pub fn decode(&self, bits: &[u8], bit_len: usize, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        self.decode_into(bits, 0, bit_len, &mut out);
        assert_eq!(out.len(), n, "bit stream holds a different symbol count");
        out
    }

    /// Decode every code word in the bit range `start..end` of `bits`,
    /// appending the symbols to `out` — the allocation-free form used by
    /// the query path (pass a reused scratch buffer). Posting lists sit
    /// back to back in one bit stream, so a list is addressed by its bit
    /// range rather than by a symbol count.
    pub fn decode_into(&self, bits: &[u8], start: usize, end: usize, out: &mut Vec<u8>) {
        let mut pos = start;
        // Canonical decode: accumulate bits; at each length the codes are
        // consecutive starting at `first_code[len]`, so membership is one
        // subtraction + compare (no per-symbol search).
        while pos < end {
            let mut code = 0u32;
            let mut len = 0usize;
            loop {
                assert!(pos < end, "bit stream exhausted");
                let bit = (bits[pos / 8] >> (7 - (pos % 8))) & 1;
                pos += 1;
                code = (code << 1) | bit as u32;
                len += 1;
                let offset = code.wrapping_sub(self.first_code[len]);
                if offset < self.count[len] as u32 {
                    out.push(self.sorted_symbols[self.first_index[len] as usize + offset as usize]);
                    break;
                }
                assert!(len < MAX_CODE_LEN, "corrupt Huffman stream");
            }
        }
    }

    /// Serialized size of the code table: one length byte per used symbol
    /// plus the symbol list.
    pub fn table_bytes(&self) -> usize {
        self.sorted_symbols.len() * 2 + 2
    }

    /// Append the code table to `out` — exactly [`Self::table_bytes`]
    /// bytes: the used-symbol count, then `(symbol, length)` pairs.
    pub fn write_table(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.sorted_symbols.len() as u16).to_le_bytes());
        for &s in &self.sorted_symbols {
            out.push(s);
            out.push(self.lengths[s as usize]);
        }
    }

    /// Rebuild a code from the front of `bytes` as written by
    /// [`Self::write_table`]; returns it with the table's byte length.
    /// `None` when `bytes` does not start with a well-formed table.
    pub fn read_table(bytes: &[u8]) -> Option<(Huffman, usize)> {
        let n = u16::from_le_bytes([*bytes.first()?, *bytes.get(1)?]) as usize;
        let pairs = bytes.get(2..2 + 2 * n)?;
        let mut lengths = [0u8; 256];
        for pair in pairs.chunks_exact(2) {
            if pair[1] == 0 || pair[1] as usize > MAX_CODE_LEN || lengths[pair[0] as usize] != 0 {
                return None;
            }
            lengths[pair[0] as usize] = pair[1];
        }
        (n > 0).then(|| (Self::from_lengths(lengths), 2 + 2 * n))
    }
}

/// Histogram helper.
pub fn byte_histogram(data: &[u8]) -> [u64; 256] {
    let mut h = [0u64; 256];
    for &b in data {
        h[b as usize] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let h = Huffman::from_frequencies(&byte_histogram(data));
        let (bits, len) = h.encode(data);
        let back = h.decode(&bits, len, data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(b"abracadabra");
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[42u8; 100]);
    }

    #[test]
    fn roundtrip_two_symbols() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros: entropy ≈ 0.47 bits/symbol — Huffman should beat 8.
        let mut data = vec![0u8; 900];
        data.extend(std::iter::repeat_n(7u8, 50));
        data.extend(std::iter::repeat_n(200u8, 50));
        let h = Huffman::from_frequencies(&byte_histogram(&data));
        let (bits, len) = h.encode(&data);
        assert!(
            len < data.len() * 8 / 4,
            "no compression: {len} bits for {} bytes",
            data.len()
        );
        assert_eq!(h.decode(&bits, len, data.len()), data);
    }

    #[test]
    fn uniform_distribution_roundtrips() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        roundtrip(&data);
    }

    #[test]
    fn deterministic_codes() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let h1 = Huffman::from_frequencies(&byte_histogram(data));
        let h2 = Huffman::from_frequencies(&byte_histogram(data));
        assert_eq!(h1.encode(data).0, h2.encode(data).0);
    }

    #[test]
    #[should_panic(expected = "no symbols")]
    fn empty_frequencies_panic() {
        Huffman::from_frequencies(&[0u64; 256]);
    }
}
