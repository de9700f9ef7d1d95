//! Persistent on-media layout of a heap pool.
//!
//! ```text
//! word 0              HEAP_MAGIC
//! word 1              pool length in words
//! word 2              number of root slots R
//! word 3              reserved
//! words 4 .. 4+R      root table (PAddr bits, 0 = empty)
//! words start ..      block, block, block, ...
//! ```
//!
//! Every block is `1 + class_words` long: a one-word header followed by
//! the data. The header encodes a tag byte and the *size class* in data
//! words; the tag distinguishes live and freed blocks for assertions (GC
//! decides liveness by reachability, not by the tag).

/// "PMHEAP01" in a single u64.
pub const HEAP_MAGIC: u64 = 0x504d_4845_4150_3031;

/// Header word offsets.
pub const OFF_MAGIC: u64 = 0;
pub const OFF_LEN: u64 = 1;
pub const OFF_ROOTS_LEN: u64 = 2;
pub const OFF_ROOTS: u64 = 4;

/// Tag byte of a live (allocated) block header.
pub const TAG_LIVE: u64 = 0xA5;
/// Tag byte of a freed block header.
pub const TAG_FREE: u64 = 0x5A;

/// Encode a block header word.
#[inline]
pub fn encode_header(tag: u64, class_words: usize) -> u64 {
    debug_assert!(tag == TAG_LIVE || tag == TAG_FREE);
    ((class_words as u64) << 8) | tag
}

/// Decode a block header word into `(tag, class_words)`, or `None` if the
/// word is not a plausible header: a known tag over a size that is a
/// class ([`crate::classes::is_class`]) — the only sizes the allocator
/// writes, and the only ones `class_index` can file.
#[inline]
pub fn decode_header(word: u64) -> Option<(u64, usize)> {
    let tag = word & 0xFF;
    if tag != TAG_LIVE && tag != TAG_FREE {
        return None;
    }
    let words = usize::try_from(word >> 8).ok()?;
    crate::classes::is_class(words).then_some((tag, words))
}

/// First allocatable word for a heap with `roots` root slots, rounded up
/// to a cache line so blocks start line-aligned relative to the table;
/// `None` if that is past `u64::MAX` (a corrupt roots count).
pub fn heap_start(roots: u64) -> Option<u64> {
    OFF_ROOTS
        .checked_add(roots)?
        .checked_next_multiple_of(pmem_sim::WORDS_PER_LINE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = encode_header(TAG_LIVE, 48);
        assert_eq!(decode_header(h), Some((TAG_LIVE, 48)));
        let f = encode_header(TAG_FREE, 4);
        assert_eq!(decode_header(f), Some((TAG_FREE, 4)));
    }

    #[test]
    fn zero_is_not_a_header() {
        assert_eq!(decode_header(0), None);
    }

    #[test]
    fn junk_tags_rejected() {
        assert_eq!(decode_header(0x1234_5600), None);
        assert_eq!(decode_header((10 << 8) | 0x77), None);
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(decode_header(TAG_LIVE), None);
    }

    /// A bit-flipped class word that is not a class size would index
    /// past the free lists; it is not a header.
    #[test]
    fn non_class_sizes_rejected() {
        for words in [3usize, 10, 100, (1 << 22) + 4, 1 << 23, 1 << 40] {
            assert_eq!(decode_header(((words as u64) << 8) | TAG_LIVE), None);
        }
        assert_eq!(decode_header(u64::MAX), None);
    }

    #[test]
    fn heap_start_is_line_aligned_and_clears_roots() {
        for roots in [0u64, 1, 4, 60, 61, 64, 100] {
            let s = heap_start(roots).unwrap();
            assert_eq!(s % pmem_sim::WORDS_PER_LINE as u64, 0);
            assert!(s >= OFF_ROOTS + roots);
        }
        assert_eq!(
            heap_start(u64::MAX - OFF_ROOTS),
            None,
            "rounds past the end"
        );
        assert_eq!(heap_start(u64::MAX), None, "adds past the end");
    }
}
