//! The JSON writer every `Serialize` impl appends through.

use std::fmt::Write as _;

/// Appends JSON text to a `String`: pretty when `PRETTY`, compact
/// otherwise. The form is a type parameter, so compact writing pays for no
/// indentation checks.
///
/// Pretty text indents two spaces per level, puts `": "` after a key and
/// writes an empty array or object as `[]` or `{}`; scalars read the same
/// in both forms.
///
/// A container is written as [`begin`](Self::begin), then
/// [`item`](Self::item) before each array element or
/// [`field`](Self::field) before each object entry, then
/// [`end`](Self::end).
pub struct Writer<'a, const PRETTY: bool> {
    out: &'a mut String,
    depth: usize,
    /// Nothing has been written yet in the innermost open container.
    empty: bool,
}

/// A newline and the deepest indentation one `push_str` covers.
const INDENT: &str = "\n                                                                ";

/// Each byte's JSON escape: 0 for a byte written as it is, `u` for
/// `\u00xx`, otherwise the character after the backslash.
const ESCAPE: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[0x08] = b'b';
    table[0x0c] = b'f';
    table
};

impl<'a, const PRETTY: bool> Writer<'a, PRETTY> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer {
            out,
            depth: 0,
            empty: false,
        }
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, u: u64) {
        let _ = write!(self.out, "{u}");
    }

    /// Write a signed integer.
    pub fn i64(&mut self, i: i64) {
        let _ = write!(self.out, "{i}");
    }

    /// Write a float: when finite, the shortest text that reads back to
    /// the same bits (`{:?}`, which always carries a `.` or an exponent);
    /// `null` for NaN and ±∞.
    pub fn f64(&mut self, x: f64) {
        if x.is_finite() {
            let _ = write!(self.out, "{x:?}");
        } else {
            self.null();
        }
    }

    /// Write `s` as a JSON string literal: `"`, `\` and the bytes below
    /// 0x20 escaped (the short form where JSON has one, lowercase `\u00xx`
    /// otherwise), every other byte as it is.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut *self.out;
        out.reserve(s.len() + 2);
        out.push('"');
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = ESCAPE[usize::from(b)];
            if escape == 0 {
                continue;
            }
            out.push_str(&s[start..i]);
            out.push('\\');
            out.push(char::from(escape));
            if escape == b'u' {
                out.push_str("00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
            start = i + 1;
        }
        out.push_str(&s[start..]);
        out.push('"');
    }

    /// Open an array (`open` is `[`) or an object (`{`).
    pub fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
    }

    /// Start the next array element or object entry: the comma after the
    /// one before, and in pretty text a new line at this depth.
    pub fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if PRETTY {
            self.newline();
        }
    }

    /// Start the next object entry with `key`: a JSON string literal and
    /// its colon (`"name":`), escapes included; the value follows.
    pub fn field(&mut self, key: &str) {
        self.item();
        self.out.push_str(key);
        if PRETTY {
            self.out.push(' ');
        }
    }

    /// The separator between an object entry's key and its value.
    pub(crate) fn colon(&mut self) {
        self.out.push_str(if PRETTY { ": " } else { ":" });
    }

    /// Close the innermost container with `close` (`]` or `}`).
    pub fn end(&mut self, close: char) {
        self.depth -= 1;
        if PRETTY && !self.empty {
            self.newline();
        }
        self.out.push(close);
        self.empty = false;
    }

    fn newline(&mut self) {
        let mut spaces = 2 * self.depth;
        let head = spaces.min(INDENT.len() - 1);
        self.out.push_str(&INDENT[..1 + head]);
        spaces -= head;
        for _ in 0..spaces {
            self.out.push(' ');
        }
    }
}
