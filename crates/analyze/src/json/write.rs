//! The writer: constant keys, digit-table integers, memoized float texts
//! and RFC 8259 strings, appended into one byte buffer.

use std::io::Write as _;

/// `"00"`, `"01"`, …, `"99"`: the two-digit groups integers are written in.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Longest float text a memo slot holds. `Display` writes a float as a
/// plain decimal of up to 17 significant digits, so the values a report
/// carries (seconds, picojoules, ratios) fit; `1e300` or a subnormal
/// does not and is written uncached.
const SLOT_TEXT: usize = 23;

/// One direct-mapped memo entry: a float's bit pattern and its text.
#[derive(Clone, Copy, Debug)]
struct FloatSlot {
    bits: u64,
    /// Length of `text`; 0 marks an empty slot (no float's text is empty).
    len: u8,
    text: [u8; SLOT_TEXT],
}

/// Appends JSON straight into one byte buffer: keys and punctuation as
/// constant strings, integers through a two-digit table, floats as `f64`'s
/// shortest round-trip `Display` form (`null` when not finite, which JSON
/// cannot represent), strings as RFC 8259 literals.
///
/// Float texts are memoized in a direct-mapped table keyed by the full
/// bit pattern. A hit copies the cached bytes; a miss formats with
/// `Display` and fills the slot. Every cached text is `Display`'s own
/// output for exactly those bits, so the bytes equal the unmemoized
/// writer's (see the [module docs](super)).
#[derive(Debug)]
pub struct JsonWriter {
    out: Vec<u8>,
    memo: Vec<FloatSlot>,
    /// `64 - log2(memo.len())`: a hashed bit pattern's top bits pick
    /// its slot.
    shift: u32,
}

impl JsonWriter {
    /// Memo slots at most: 4096 × 32 bytes stay in a core's L2 cache.
    const MAX_SLOTS: usize = 1 << 12;

    /// A writer with `bytes` of output capacity and a memo sized for
    /// about `floats` float fields.
    pub fn new(bytes: usize, floats: usize) -> Self {
        let slots = floats.next_power_of_two().clamp(16, Self::MAX_SLOTS);
        let empty = FloatSlot {
            bits: 0,
            len: 0,
            text: [0; SLOT_TEXT],
        };
        JsonWriter {
            out: Vec::with_capacity(bytes),
            memo: vec![empty; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// The memo slot of a bit pattern (Fibonacci hashing: the multiply
    /// carries every input bit into the top bits).
    #[inline]
    fn slot(&self, bits: u64) -> usize {
        (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Appends `s` verbatim: keys, punctuation and layout.
    #[inline]
    pub fn raw(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
    }

    /// `prefix`, then `v` in decimal.
    #[inline]
    pub fn uint(&mut self, prefix: &str, mut v: u64) {
        self.raw(prefix);
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            buf[at] = b'0' + v as u8;
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    /// `prefix`, then `x` as a JSON number (`null` when not finite).
    #[inline]
    pub fn float(&mut self, prefix: &str, x: f64) {
        self.raw(prefix);
        if !x.is_finite() {
            self.raw("null");
            return;
        }
        let bits = x.to_bits();
        let i = self.slot(bits);
        let slot = &self.memo[i];
        if slot.len > 0 && slot.bits == bits {
            self.out
                .extend_from_slice(&slot.text[..usize::from(slot.len)]);
            return;
        }
        let start = self.out.len();
        // Writing into a `Vec` cannot fail.
        let _ = write!(self.out, "{x}");
        let text = &self.out[start..];
        if text.len() <= SLOT_TEXT {
            let slot = &mut self.memo[i];
            slot.bits = bits;
            slot.len = text.len() as u8;
            slot.text[..text.len()].copy_from_slice(text);
        }
    }

    /// `prefix`, then `s` as a JSON string literal (RFC 8259 §7):
    /// quotation mark, reverse solidus and control characters are
    /// escaped, everything else is written as raw UTF-8.
    #[inline]
    pub fn string(&mut self, prefix: &str, s: &str) {
        self.raw(prefix);
        self.out.push(b'"');
        for c in s.chars() {
            match c {
                '"' => self.raw("\\\""),
                '\\' => self.raw("\\\\"),
                '\n' => self.raw("\\n"),
                '\r' => self.raw("\\r"),
                '\t' => self.raw("\\t"),
                c if c < ' ' => {
                    let hex = b"0123456789abcdef";
                    let b = c as usize;
                    self.raw("\\u00");
                    self.out.extend_from_slice(&[hex[b >> 4], hex[b & 0xf]]);
                }
                c => self.raw(c.encode_utf8(&mut [0; 4])),
            }
        }
        self.out.push(b'"');
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends only UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// What `write` appends through a fresh writer.
    fn written(write: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new(0, 0);
        write(&mut w);
        w.finish()
    }

    #[test]
    fn tenant_names_are_valid_json_strings() {
        let json_str = |s: &str| written(|w| w.string("", s));
        // Rust's `Debug` would write `\u{7}` and `\u{200b}`, neither of
        // which is a JSON escape.
        assert_eq!(json_str("a\u{7}b"), "\"a\\u0007b\"");
        assert_eq!(json_str("z\u{200b}w"), "\"z\u{200b}w\"");
        assert_eq!(json_str("q\"b\\s\n\u{1f}"), r#""q\"b\\s\n\u001f""#);
        for name in ["health", "fitness", "tenant-7 (EU)", "it's"] {
            assert_eq!(
                json_str(name),
                format!("{name:?}"),
                "ASCII names are unchanged"
            );
        }
    }

    #[test]
    fn floats_are_written_as_display_or_null() {
        let smallest_subnormal = f64::from_bits(1);
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            smallest_subnormal,
            // 23 and 26 characters: the longest cached text, and one
            // just too long for a slot.
            1e22,
            1e25,
            1e300,
            f64::MAX,
            -f64::MAX,
            0.1,
            1.0 / 3.0,
        ] {
            // Twice: the second write is a memo hit where the text fits.
            assert_eq!(
                written(|w| {
                    w.float("", x);
                    w.float(",", x);
                }),
                format!("{x},{x}")
            );
        }
        for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(written(|w| w.float("", x)), "null", "{x}");
        }
    }

    #[test]
    fn random_bit_patterns_match_display() {
        // A small memo, so hits, misses and evictions all occur.
        let mut w = JsonWriter::new(0, 16);
        // xorshift64*, seeded.
        let mut state = 0x5eed_u64;
        let mut expected = String::new();
        for i in 0..100_000u64 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let raw = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Any pattern (mostly texts too long to cache), a random
            // mantissa near 1.0 (cached, then evicted) or one of 64
            // values (memo hits).
            let x = match i % 3 {
                0 => f64::from_bits(raw),
                1 => f64::from_bits(
                    (raw & 0x800f_ffff_ffff_ffff) | ((1013 + (raw >> 58 & 15)) << 52),
                ),
                _ => (raw % 64) as f64 / 7.0,
            };
            w.float(",", x);
            if x.is_finite() {
                let _ = write!(expected, ",{x}");
            } else {
                expected.push_str(",null");
            }
        }
        assert!(
            w.finish() == expected,
            "a float's text differs from Display"
        );
    }

    #[test]
    fn colliding_bit_patterns_both_come_out_right() {
        let mut w = JsonWriter::new(0, 16);
        let a = 0.25f64;
        let b = (1..)
            .map(|k| f64::from(k) * 0.125)
            .find(|b| b.to_bits() != a.to_bits() && w.slot(b.to_bits()) == w.slot(a.to_bits()))
            .expect("a 16-slot memo has a collision");
        for _ in 0..3 {
            w.float(",", a);
            w.float(",", b);
        }
        assert_eq!(w.finish(), format!(",{a},{b}").repeat(3));
    }

    #[test]
    fn integers_match_to_string() {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        for v in values {
            assert_eq!(written(|w| w.uint("", v)), v.to_string());
        }
    }
}
