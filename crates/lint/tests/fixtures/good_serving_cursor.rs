// Fixture (serving scope): the same cursor panic-free — `.get(pos..)` for
// the tail, and the empty tail is an error the caller sees. A method the
// parser itself names `expect` would read as `Option::expect` to the rule,
// so it is called `eat`. Must be clean.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    pub fn next_char(&mut self) -> Result<char, String> {
        let tail = self.bytes.get(self.pos..).unwrap_or_default();
        let rest = std::str::from_utf8(tail).map_err(|e| e.to_string())?;
        let c = rest.chars().next().ok_or("end of input")?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    pub fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}`", b as char))
        }
    }
}
