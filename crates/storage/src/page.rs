//! Fixed-size pages with a CRC-32 trailer.

use crate::crc32::crc32;
use std::fs::File;
use std::io;

/// Page size used throughout the disk experiments: 1 MiB, "following the
/// same process in the TrajStore paper, bounding the data on disk and
/// setting the page size as 1MB" (paper §6.5).
pub const PAGE_SIZE: usize = 1 << 20;

/// Trailer bytes reserved at the end of every page for the CRC-32 of the
/// payload area. [`crate::PageStore`] seals the trailer on write and
/// verifies it on page-in, so torn or bit-rotted pages surface as I/O
/// errors instead of silently corrupt query answers.
pub const PAGE_TRAILER: usize = 4;

/// Usable payload bytes of a page of `page_size` total bytes.
#[inline]
pub fn payload_capacity(page_size: usize) -> usize {
    assert!(
        page_size > PAGE_TRAILER,
        "page size {page_size} leaves no room for the {PAGE_TRAILER}-byte CRC trailer"
    );
    page_size - PAGE_TRAILER
}

/// An owned page buffer. The size is fixed per [`crate::PageStore`]
/// (default [`PAGE_SIZE`]); experiments that scale datasets down scale the
/// page size with them so pages-per-structure ratios stay in the regime
/// the paper measured.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// A zeroed page of the default size.
    pub fn zeroed() -> Page {
        Self::zeroed_with(PAGE_SIZE)
    }

    /// A zeroed page of an explicit size.
    pub fn zeroed_with(size: usize) -> Page {
        assert!(size > 0);
        Page {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// Wrap a buffer as a page (any size).
    pub fn from_bytes(data: Vec<u8>) -> Page {
        assert!(!data.is_empty(), "empty page");
        Page {
            data: data.into_boxed_slice(),
        }
    }

    /// Build from a payload of at most `PAGE_SIZE` bytes, zero-padded.
    pub fn from_payload(payload: &[u8]) -> Page {
        Self::from_payload_with(payload, PAGE_SIZE)
    }

    /// Build from a payload of at most `payload_capacity(size)` bytes,
    /// zero-padded, leaving the trailer free for the CRC seal.
    pub fn from_payload_with(payload: &[u8], size: usize) -> Page {
        assert!(
            payload.len() <= payload_capacity(size),
            "payload {} exceeds page payload capacity {}",
            payload.len(),
            payload_capacity(size)
        );
        let mut data = vec![0u8; size];
        data[..payload.len()].copy_from_slice(payload);
        Page {
            data: data.into_boxed_slice(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// The payload area (everything before the CRC trailer).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.data[..self.data.len() - PAGE_TRAILER]
    }

    /// Compute the payload CRC and store it in the trailer.
    pub fn seal_crc(&mut self) {
        let crc = crc32(self.payload());
        let at = self.data.len() - PAGE_TRAILER;
        self.data[at..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Check the trailer CRC against the payload.
    pub fn verify_crc(&self) -> bool {
        let at = self.data.len() - PAGE_TRAILER;
        let stored = u32::from_le_bytes(self.data[at..].try_into().unwrap());
        crc32(self.payload()) == stored
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", self.data.len())
    }
}

/// Page `id` of `file`, a file of `page_size`-byte pages: one positional
/// read through [`crate::fault`] on the calling thread, then the CRC
/// check. Every page-in of the crate goes through here. A mismatch is an
/// `InvalidData` error naming segment `seg` and the page, never a
/// silently corrupt page.
pub(crate) fn read_page(file: &File, seg: u64, id: u64, page_size: usize) -> io::Result<Page> {
    let mut buf = vec![0u8; page_size];
    crate::fault::read_exact_at(file, &mut buf, id * page_size as u64)?;
    let page = Page::from_bytes(buf);
    if !page.verify_crc() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("segment {seg} page {id}: CRC mismatch (corrupt page)"),
        ));
    }
    Ok(page)
}

/// Number of default-size pages needed to hold `bytes` payload bytes.
pub fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(payload_capacity(PAGE_SIZE)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_full_size() {
        let p = Page::zeroed();
        assert_eq!(p.as_bytes().len(), PAGE_SIZE);
        assert!(p.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn payload_padding() {
        let p = Page::from_payload(&[1, 2, 3]);
        assert_eq!(&p.as_bytes()[..3], &[1, 2, 3]);
        assert_eq!(p.as_bytes()[3], 0);
    }

    #[test]
    #[should_panic(expected = "exceeds page payload capacity")]
    fn oversize_payload_panics() {
        Page::from_payload(&vec![0u8; PAGE_SIZE - PAGE_TRAILER + 1]);
    }

    #[test]
    fn pages_for_rounding() {
        let cap = payload_capacity(PAGE_SIZE);
        assert_eq!(pages_for(0), 1);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(cap), 1);
        assert_eq!(pages_for(cap + 1), 2);
        assert_eq!(pages_for(10 * cap), 10);
    }

    #[test]
    fn crc_seal_and_verify() {
        let mut p = Page::from_payload(&[1, 2, 3]);
        p.seal_crc();
        assert!(p.verify_crc());
        // Payload corruption breaks the seal; resealing repairs it.
        p.as_bytes_mut()[1] ^= 0x40;
        assert!(!p.verify_crc());
        p.seal_crc();
        assert!(p.verify_crc());
        // The payload view excludes the trailer.
        assert_eq!(p.payload().len(), PAGE_SIZE - PAGE_TRAILER);
    }
}
