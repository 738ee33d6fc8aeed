//! Little-endian binary encoding primitives shared by the h5lite and `.hml`
//! codecs. Writers append `to_le_bytes` to a plain `Vec<u8>`. [`Reader`]
//! checks every read against the bytes left, and every count prefix
//! (`count * width`, overflow included) before the caller allocates on it.
//! A refused fixed-width read or byte run leaves the cursor in place and
//! reports a [`Malformed`], which each format maps onto its own typed error.

use crate::StoreError;

/// Why a [`Reader`] refused a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed(pub String);

impl From<Malformed> for StoreError {
    fn from(e: Malformed) -> Self {
        StoreError::Corrupt(e.0)
    }
}

type Result<T> = std::result::Result<T, Malformed>;

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian cursor over a borrowed byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far, counted from the start of the reader's slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Consume and return everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        self.pos += self.buf.len();
        std::mem::take(&mut self.buf)
    }

    /// Check that `count` items of `width` bytes each fit in what is left,
    /// and return their byte length.
    fn fits(&self, count: usize, width: usize) -> Result<usize> {
        match count.checked_mul(width) {
            Some(len) if len <= self.buf.len() => Ok(len),
            _ => Err(Malformed(format!(
                "{count} x {width} bytes overrun buffer ({} left)",
                self.buf.len()
            ))),
        }
    }

    /// Consume a run of `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let (run, rest) = self.buf.split_at(self.fits(len, 1)?);
        self.buf = rest;
        self.pos += len;
        Ok(run)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    pub fn f32(&mut self) -> Result<f32> {
        self.array().map(f32::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u64` extent as a `usize`. One too large for the host saturates,
    /// so it fails the bounds or shape check it meets next.
    pub fn extent(&mut self) -> Result<usize> {
        Ok(usize::try_from(self.u64()?).unwrap_or(usize::MAX))
    }

    /// Read a `u32` count prefix of items at least `width` bytes wide.
    pub fn count_u32(&mut self, width: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.fits(n, width).map(|_| n)
    }

    /// Read `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        let run = self.bytes(self.fits(n, 4)?)?;
        Ok(run
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| Malformed("invalid utf8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo/wörld");
        assert_eq!(Reader::new(&buf).str().unwrap(), "héllo/wörld");
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        let mut rd = Reader::new(&buf[..5]); // cut mid-string
        assert!(rd.str().is_err());
        let mut empty = Reader::new(&[]);
        assert!(empty.u64().is_err());
        assert!(empty.u8().is_err());
    }

    #[test]
    fn numeric_roundtrip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&42u32.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&(-7i64).to_le_bytes());
        buf.extend_from_slice(&2.5f64.to_le_bytes());
        let mut rd = Reader::new(&buf);
        assert_eq!(rd.u32().unwrap(), 42);
        assert_eq!(rd.u64().unwrap(), 1 << 40);
        assert_eq!(rd.i64().unwrap(), -7);
        assert_eq!(rd.f64().unwrap(), 2.5);
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f32).to_le_bytes());
        buf.extend_from_slice(&0.5f32.to_le_bytes());
        let mut rd = Reader::new(&buf);
        assert_eq!(rd.u8().unwrap(), 7);
        assert_eq!(rd.f32().unwrap(), 1.5);
        assert_eq!(rd.f32s(2).unwrap(), vec![-2.25, 0.5]);
        assert!(rd.rest().is_empty());
    }

    #[test]
    fn refused_read_leaves_cursor_in_place() {
        let buf = [0u8, 1, 2, 3, 4, 5];
        let mut rd = Reader::new(&buf);
        assert_eq!(rd.bytes(2).unwrap(), &[0, 1]);
        assert!(rd.u64().is_err());
        assert!(rd.bytes(5).is_err());
        assert_eq!(rd.pos(), 2);
        let mut sub = Reader::new(rd.bytes(3).unwrap());
        assert_eq!(sub.u8().unwrap(), 2);
        assert_eq!(sub.pos(), 1);
        assert_eq!(sub.rest(), &[3, 4]);
        assert_eq!(sub.pos(), 3);
        assert_eq!(rd.rest(), &[5]);
        assert_eq!(rd.pos(), 6);
    }

    #[test]
    fn count_prefixes_are_checked_before_use() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut rd = Reader::new(&buf);
        assert!(rd.count_u32(1).is_err());
        assert_eq!(rd.extent(), Ok(1 << 62));
        assert!(rd.f32s(1 << 62).is_err());
        // 16 bytes left: 4 items of 4 fit, 2 items of 8 fit, 3 of 8 do not.
        assert_eq!(rd.fits(4, 4), Ok(16));
        assert_eq!(rd.fits(2, 8), Ok(16));
        assert!(rd.fits(3, 8).is_err());
        assert!(rd.fits(usize::MAX, 2).is_err());
        assert!(rd.f32s(usize::MAX).is_err());
    }
}
