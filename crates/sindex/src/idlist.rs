//! The trajectory-ID list codec (paper §5.1).
//!
//! Grid cells map to lists of trajectory IDs. A list is sorted, delta
//! encoded (gaps) and the gaps LEB128-byte-split. An open TPI period's
//! lists live as those bytes in [`crate::PostingDict`] arenas;
//! [`CompressedIdList`] is one list whose bytes are also Huffman-packed
//! when that is smaller, the code table travelling in front.

use crate::huffman::{byte_histogram, Huffman};

/// A compressed, sorted list of u32 IDs: one list sealed on its own, so
/// when packing pays its code table travels in front of the bit stream.
#[derive(Clone, Debug)]
pub struct CompressedIdList {
    /// The delta-varint bytes, or — when `packed_bits > 0` — the code
    /// table followed by the Huffman bit stream of those bytes.
    bytes: Box<[u8]>,
    len: u32,
    packed_bits: u32,
}

// A per-list code table (1.6 KB inline at one time) must not creep back.
const _: () = assert!(std::mem::size_of::<CompressedIdList>() <= 64);

/// LEB128-encode a u32 into `out`.
fn write_varint(mut v: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Append the delta-varint encoding of `sorted` (ascending, distinct).
pub(crate) fn encode_ids(sorted: impl IntoIterator<Item = u32>, out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for id in sorted {
        write_varint(id - prev, out);
        prev = id;
    }
}

/// Decode a whole delta-varint list, appending the ascending IDs to `out`.
pub(crate) fn decode_ids(bytes: &[u8], out: &mut Vec<u32>) {
    let mut acc = 0u32;
    let mut v = 0u32;
    let mut shift = 0;
    for &byte in bytes {
        v |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            acc += v;
            out.push(acc);
            v = 0;
            shift = 0;
        } else {
            shift += 7;
        }
    }
}

impl CompressedIdList {
    /// Compress a list of IDs (any order; stored sorted + deduplicated).
    pub fn compress(ids: &[u32]) -> CompressedIdList {
        let mut sorted: Vec<u32> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut raw = Vec::with_capacity(sorted.len() + 4);
        encode_ids(sorted.iter().copied(), &mut raw);
        let len = sorted.len() as u32;
        if let Some(code) = Huffman::for_histogram(&byte_histogram(&raw)) {
            let bits = code.encoded_bits(&raw);
            if code.table_bytes() + bits.div_ceil(8) < raw.len() {
                let mut bytes = Vec::with_capacity(code.table_bytes() + bits.div_ceil(8));
                code.write_table(&mut bytes);
                let mut bitpos = bytes.len() * 8;
                code.encode_append(&raw, &mut bytes, &mut bitpos);
                return CompressedIdList {
                    bytes: bytes.into(),
                    len,
                    packed_bits: u32::try_from(bits).expect("list exceeds the u32 bit domain"),
                };
            }
        }
        CompressedIdList {
            bytes: raw.into(),
            len,
            packed_bits: 0,
        }
    }

    /// Number of IDs stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decompress back into the sorted ID list.
    pub fn decompress(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.decompress_into(&mut Vec::new(), &mut out);
        out
    }

    /// Decompress, appending the sorted IDs to `out`.
    ///
    /// `scratch` receives the intermediate Huffman-decoded bytes; passing a
    /// reused buffer makes a hot loop allocation-free after warm-up.
    pub fn decompress_into(&self, scratch: &mut Vec<u8>, out: &mut Vec<u32>) {
        out.reserve(self.len());
        if self.packed_bits == 0 {
            return decode_ids(&self.bytes, out);
        }
        let (code, table) = Huffman::read_table(&self.bytes).expect("table written by compress");
        scratch.clear();
        let start = table * 8;
        code.decode_into(
            &self.bytes,
            start,
            start + self.packed_bits as usize,
            scratch,
        );
        decode_ids(scratch, out);
    }

    /// Stored size: payload (with its code table when packed) + counters.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sorted() {
        let ids = vec![3, 17, 19, 200, 201, 202, 90000];
        let c = CompressedIdList::compress(&ids);
        assert_eq!(c.decompress(), ids);
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn roundtrip_unsorted_dedups() {
        let ids = vec![5, 1, 5, 3, 1];
        let c = CompressedIdList::compress(&ids);
        assert_eq!(c.decompress(), vec![1, 3, 5]);
    }

    #[test]
    fn empty_list() {
        let c = CompressedIdList::compress(&[]);
        assert!(c.is_empty());
        assert!(c.decompress().is_empty());
    }

    #[test]
    fn single_id() {
        let c = CompressedIdList::compress(&[123456]);
        assert_eq!(c.decompress(), vec![123456]);
        // Three varint bytes: no code table can pay for itself.
        assert_eq!(c.size_bytes(), 3 + 8);
    }

    #[test]
    fn dense_runs_compress_well() {
        // Consecutive IDs: deltas are all 1 → near-zero entropy.
        let ids: Vec<u32> = (1000..3000).collect();
        let c = CompressedIdList::compress(&ids);
        let raw = ids.len() * 4;
        assert!(
            c.size_bytes() < raw / 4,
            "dense list barely compressed: {} vs raw {}",
            c.size_bytes(),
            raw
        );
        assert_eq!(c.decompress(), ids);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 16383, 16384, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut out = Vec::new();
            decode_ids(&buf, &mut out);
            assert_eq!(out, vec![v]);
        }
    }

    #[test]
    fn large_sparse_ids() {
        let ids: Vec<u32> = (0..500).map(|i| i * 7919 + 13).collect();
        let c = CompressedIdList::compress(&ids);
        assert_eq!(c.decompress(), ids);
    }
}
