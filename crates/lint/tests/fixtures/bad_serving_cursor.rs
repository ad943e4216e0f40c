// Fixture (serving scope): a parser cursor the way the vendored JSON reader
// had it — slicing from `pos` panics once `pos` passes the end, and the
// `unwrap` trusts a check made somewhere else. Must trigger
// `panic-free-serving` twice.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    pub fn next_char(&mut self) -> Result<char, String> {
        let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
        let c = rest.chars().next().unwrap();
        self.pos += c.len_utf8();
        Ok(c)
    }
}
