//! The one 64-bit word hasher behind every digest in the workspace.

/// Incremental word-at-a-time 64-bit mixer (rotate-xor-multiply, FxHash
/// style): one multiply per `u64`, no allocation. Shape signatures in
/// `swift-dag` and the report digests in `swift-scheduler` and
/// `swift-service` all fold their words through it.
///
/// Each [`Fnv64::eat`] is a bijection of the state, so two streams that
/// differ in exactly one word always finish differently. Streams that
/// differ in more can collide, as with any 64-bit hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x517c_c1b7_2722_0a95;

    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds one word in.
    #[inline]
    pub fn eat(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::PRIME);
    }

    /// Folds a string in: its length, then its bytes eight to a word
    /// (the last word zero-padded). The length prefix keeps adjacent
    /// strings from running into each other.
    pub fn eat_str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.eat(u64::from_le_bytes(word));
        }
    }

    /// The digest of everything eaten so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(words: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        for &w in words {
            h.eat(w);
        }
        h.finish()
    }

    #[test]
    fn one_changed_word_always_changes_the_digest() {
        let base = [3u64, 0, u64::MAX, 7];
        for i in 0..base.len() {
            for bit in [0u32, 31, 63] {
                let mut other = base;
                other[i] ^= 1 << bit;
                assert_ne!(of(&base), of(&other), "word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn order_and_length_are_hashed() {
        assert_ne!(of(&[1, 2]), of(&[2, 1]));
        assert_ne!(of(&[0]), of(&[0, 0]));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let pair = |a: &str, b: &str| {
            let mut h = Fnv64::new();
            h.eat_str(a);
            h.eat_str(b);
            h.finish()
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
        assert_ne!(pair("", "a"), pair("a", ""));
        // Zero padding alone must not make "a" and "a\0" equal.
        assert_ne!(pair("a", ""), pair("a\0", ""));
    }
}
