//! Compact binary serialization of triplet data.
//!
//! The synthetic datasets used by the benchmark harness can reach tens of
//! millions of entries; regenerating them for every benchmark run would
//! dominate wall-clock time.  This module provides a small, versioned,
//! endian-stable binary format (big-endian throughout) for caching
//! generated datasets on disk, plus a text loader for externally supplied
//! `user item rating` files (e.g. the real Netflix or Yahoo! Music data if
//! the user has a licensed copy).

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{Idx, TripletMatrix};

/// Magic bytes identifying the binary triplet format ("NMD1").
const MAGIC: u32 = 0x4E4D_4431;

/// Errors arising while reading or writing dataset files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic(u32),
    /// The file ended before the declared number of entries was read.
    Truncated {
        /// Entries expected according to the header.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
    /// A text line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An index in the file exceeds the declared dimensions.
    IndexOutOfBounds {
        /// 1-based line or entry number.
        position: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::BadMagic(m) => write!(f, "bad magic 0x{m:08X}; not a NOMAD triplet file"),
            IoError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated file: expected {expected} entries, found {found}"
                )
            }
            IoError::BadLine { line, content } => {
                write!(f, "cannot parse line {line}: {content:?}")
            }
            IoError::IndexOutOfBounds { position } => {
                write!(f, "entry {position} is out of the declared matrix bounds")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Bytes in the header: magic, version, rows, columns, entries.
const HEADER_BYTES: usize = 32;

/// Bytes per entry: row, column, value.
const ENTRY_BYTES: usize = 16;

/// Serializes triplets into the binary format.
pub fn to_bytes(t: &TripletMatrix) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + t.nnz() * ENTRY_BYTES);
    buf.extend_from_slice(&MAGIC.to_be_bytes());
    buf.extend_from_slice(&1u32.to_be_bytes()); // format version
    for dim in [t.nrows(), t.ncols(), t.nnz()] {
        buf.extend_from_slice(&(dim as u64).to_be_bytes());
    }
    for e in t.entries() {
        buf.extend_from_slice(&e.row.to_be_bytes());
        buf.extend_from_slice(&e.col.to_be_bytes());
        buf.extend_from_slice(&e.value.to_bits().to_be_bytes());
    }
    buf
}

/// The big-endian `N`-byte field at `at`; the caller has checked the
/// length.
fn field<const N: usize>(data: &[u8], at: usize) -> [u8; N] {
    data[at..at + N].try_into().expect("length checked")
}

/// Deserializes triplets from the binary format.
pub fn from_bytes(data: &[u8]) -> Result<TripletMatrix, IoError> {
    if data.len() < HEADER_BYTES {
        return Err(IoError::Truncated {
            expected: 1,
            found: 0,
        });
    }
    let magic = u32::from_be_bytes(field(data, 0));
    if magic != MAGIC {
        return Err(IoError::BadMagic(magic));
    }
    let nrows = u64::from_be_bytes(field(data, 8)) as usize;
    let ncols = u64::from_be_bytes(field(data, 16)) as usize;
    let nnz = u64::from_be_bytes(field(data, 24)) as usize;
    let entries = &data[HEADER_BYTES..];
    let mut t = TripletMatrix::with_capacity(nrows, ncols, nnz.min(entries.len() / ENTRY_BYTES));
    for idx in 0..nnz {
        let at = idx * ENTRY_BYTES;
        if entries.len() < at + ENTRY_BYTES {
            return Err(IoError::Truncated {
                expected: nnz,
                found: idx,
            });
        }
        let row = u32::from_be_bytes(field(entries, at));
        let col = u32::from_be_bytes(field(entries, at + 4));
        let value = f64::from_bits(u64::from_be_bytes(field(entries, at + 8)));
        if row as usize >= nrows || col as usize >= ncols {
            return Err(IoError::IndexOutOfBounds { position: idx + 1 });
        }
        t.push(row, col, value);
    }
    Ok(t)
}

/// Writes triplets to `path` in the binary format.
pub fn write_binary<P: AsRef<Path>>(t: &TripletMatrix, path: P) -> Result<(), IoError> {
    let bytes = to_bytes(t);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Reads triplets from a binary file written by [`write_binary`].
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<TripletMatrix, IoError> {
    let mut f = File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    from_bytes(&data)
}

/// Reads a whitespace-separated `user item rating` text file.
///
/// Lines starting with `%` or `#` are treated as comments.  Indices in the
/// file may be 0- or 1-based; set `one_based` accordingly.  The matrix
/// dimensions are inferred as `max_index + 1`.
pub fn read_text<P: AsRef<Path>>(path: P, one_based: bool) -> Result<TripletMatrix, IoError> {
    let reader = BufReader::new(File::open(path)?);
    let mut entries: Vec<(Idx, Idx, f64)> = Vec::new();
    let mut max_row = 0 as Idx;
    let mut max_col = 0 as Idx;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_err = || IoError::BadLine {
            line: lineno + 1,
            content: trimmed.to_string(),
        };
        let next_field = |parts: &mut std::str::SplitWhitespace<'_>| {
            parts.next().map(str::to_owned).ok_or_else(parse_err)
        };
        let row_raw: u64 = next_field(&mut parts)?.parse().map_err(|_| parse_err())?;
        let col_raw: u64 = next_field(&mut parts)?.parse().map_err(|_| parse_err())?;
        let value: f64 = next_field(&mut parts)?.parse().map_err(|_| parse_err())?;
        let offset = u64::from(one_based);
        if one_based && (row_raw == 0 || col_raw == 0) {
            return Err(IoError::BadLine {
                line: lineno + 1,
                content: trimmed.to_string(),
            });
        }
        let row = (row_raw - offset) as Idx;
        let col = (col_raw - offset) as Idx;
        max_row = max_row.max(row);
        max_col = max_col.max(col);
        entries.push((row, col, value));
    }
    let nrows = if entries.is_empty() {
        0
    } else {
        max_row as usize + 1
    };
    let ncols = if entries.is_empty() {
        0
    } else {
        max_col as usize + 1
    };
    let mut t = TripletMatrix::with_capacity(nrows, ncols, entries.len());
    for (r, c, v) in entries {
        t.push(r, c, v);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TripletMatrix {
        let mut t = TripletMatrix::new(3, 5);
        t.push(0, 4, 1.5);
        t.push(2, 0, -2.0);
        t.push(1, 2, 3.25);
        t
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let t = toy();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    /// The on-disk format, byte for byte: a 3x5 matrix holding (2, 4, 1.5)
    /// and (0, 1, -0.25).  An encoder and a decoder that both changed
    /// endianness or field order would still round-trip; they fail here.
    #[test]
    fn the_binary_format_is_pinned_byte_for_byte() {
        let golden = "4e4d443100000001\
                      0000000000000003\
                      0000000000000005\
                      0000000000000002\
                      00000002000000043ff8000000000000\
                      0000000000000001bfd0000000000000";
        let golden: Vec<u8> = (0..golden.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
            .collect();
        let mut t = TripletMatrix::new(3, 5);
        t.push(2, 4, 1.5);
        t.push(0, 1, -0.25);
        assert_eq!(to_bytes(&t), golden);
        assert_eq!(from_bytes(&golden).unwrap(), t);
    }

    #[test]
    fn binary_file_roundtrip() {
        let dir = std::env::temp_dir().join("nomad_matrix_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.nmd");
        let t = toy();
        write_binary(&t, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = to_bytes(&toy());
        bytes[0] = 0xFF;
        assert!(matches!(from_bytes(&bytes), Err(IoError::BadMagic(_))));
    }

    #[test]
    fn truncated_file_is_detected() {
        let bytes = to_bytes(&toy());
        let cut = &bytes[..bytes.len() - 8];
        match from_bytes(cut) {
            Err(IoError::Truncated { expected, found }) => {
                assert_eq!(expected, 3);
                assert_eq!(found, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn tiny_buffer_is_truncated_error() {
        assert!(matches!(
            from_bytes(&[0u8; 4]),
            Err(IoError::Truncated { .. })
        ));
    }

    #[test]
    fn out_of_bounds_entry_is_detected() {
        // Hand-craft a file declaring 1x1 but containing entry (2, 0).
        let mut t = TripletMatrix::new(3, 1);
        t.push(2, 0, 1.0);
        let mut buf = to_bytes(&t);
        buf[8..16].copy_from_slice(&1u64.to_be_bytes());
        assert!(matches!(
            from_bytes(&buf),
            Err(IoError::IndexOutOfBounds { position: 1 })
        ));
    }

    #[test]
    fn text_loader_parses_comments_and_one_based_indices() {
        let dir = std::env::temp_dir().join("nomad_matrix_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        std::fs::write(&path, "% comment\n# another\n1 2 4.5\n3 1 2.0\n\n2 2 1.0\n").unwrap();
        let t = read_text(&path, true).unwrap();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.entries()[0].row, 0);
        assert_eq!(t.entries()[0].col, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_loader_rejects_garbage() {
        let dir = std::env::temp_dir().join("nomad_matrix_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "1 2 notanumber\n").unwrap();
        assert!(matches!(
            read_text(&path, true),
            Err(IoError::BadLine { line: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Truncated {
            expected: 10,
            found: 2,
        };
        assert!(e.to_string().contains("expected 10"));
        assert!(IoError::BadMagic(0xDEAD).to_string().contains("DEAD"));
    }
}
