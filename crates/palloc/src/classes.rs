//! Allocation size classes.
//!
//! Requests are rounded up to a class so freed blocks are reusable by
//! later allocations of similar size: multiples of 4 words up to 64, then
//! powers of two up to 4 Mi words (32 MiB). This mirrors the shape of
//! Makalu's segregated fits without reproducing its page internals.

/// Number of distinct size classes.
pub const NUM_CLASSES: usize = 16 + 16;

/// Round a request of `words` data words up to its class size.
///
/// # Panics
/// Panics on zero-size or oversized (> 4 Mi words) requests.
#[inline]
pub fn class_words(words: usize) -> usize {
    assert!(words > 0, "zero-size allocation");
    if words <= 64 {
        words.div_ceil(4) * 4
    } else {
        let c = words.next_power_of_two();
        assert!(c <= 1 << 22, "allocation of {words} words exceeds 32 MiB");
        c
    }
}

/// Whether `words` is a class size (a fixpoint of [`class_words`]), so
/// that [`class_index`] maps it into `0..NUM_CLASSES`.
#[inline]
pub fn is_class(words: usize) -> bool {
    if words <= 64 {
        words > 0 && words.is_multiple_of(4)
    } else {
        words.is_power_of_two() && words <= 1 << 22
    }
}

/// Map a class size (as returned by [`class_words`]) to its index.
#[inline]
pub fn class_index(class: usize) -> usize {
    if class <= 64 {
        class / 4 - 1
    } else {
        // 128 -> 16, 256 -> 17, ..., 2^22 -> 31
        16 + (class.trailing_zeros() as usize - 7)
    }
}

/// Inverse of [`class_index`] (for tests and introspection).
#[inline]
pub fn index_class(index: usize) -> usize {
    if index < 16 {
        (index + 1) * 4
    } else {
        1 << (index - 16 + 7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sizes_round_to_multiples_of_four() {
        assert_eq!(class_words(1), 4);
        assert_eq!(class_words(4), 4);
        assert_eq!(class_words(5), 8);
        assert_eq!(class_words(63), 64);
        assert_eq!(class_words(64), 64);
    }

    #[test]
    fn large_sizes_round_to_powers_of_two() {
        assert_eq!(class_words(65), 128);
        assert_eq!(class_words(128), 128);
        assert_eq!(class_words(129), 256);
        assert_eq!(class_words(1 << 22), 1 << 22);
    }

    #[test]
    #[should_panic(expected = "exceeds 32 MiB")]
    fn oversized_panics() {
        class_words((1 << 22) + 1);
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_panics() {
        class_words(0);
    }

    #[test]
    fn index_is_a_bijection_over_classes() {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..NUM_CLASSES {
            let class = index_class(idx);
            assert_eq!(class_index(class), idx);
            assert_eq!(class_words(class), class, "class sizes are fixpoints");
            assert!(seen.insert(class));
        }
    }

    #[test]
    fn is_class_accepts_exactly_the_class_sizes() {
        let classes: Vec<usize> = (0..NUM_CLASSES).map(index_class).collect();
        for words in 0..=(1 << 12) {
            assert_eq!(is_class(words), classes.contains(&words), "{words}");
        }
        assert!(is_class(1 << 22));
        assert!(!is_class(1 << 23));
        assert!(!is_class((1 << 22) + 4));
    }

    #[test]
    fn every_request_maps_into_range() {
        for words in 1..=200usize {
            let c = class_words(words);
            assert!(c >= words);
            assert!(class_index(c) < NUM_CLASSES);
        }
    }
}
