//! Matrix Market I/O (the interchange format of the SuiteSparse
//! collection the paper's test set comes from).
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers, which cover
//! the collection. Pattern entries get value 1. A document is outside
//! input: whatever it says, the reader returns a matrix of the declared
//! shape or a typed [`MmError`], never a panic.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use std::fmt::Write as _;
use std::path::Path;
use vbatch_core::Scalar;

/// Errors while reading a Matrix Market stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmError {
    /// The banner line is missing or unsupported.
    BadHeader(String),
    /// A malformed size or entry line.
    BadLine { line_no: usize, content: String },
    /// Underlying I/O problem.
    Io(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::BadHeader(h) => write!(f, "unsupported MatrixMarket header: {h}"),
            MmError::BadLine { line_no, content } => {
                write!(f, "malformed line {line_no}: {content}")
            }
            MmError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for MmError {}

/// Largest dimension the reader accepts. The CSR row pointer is
/// allocated from the size line, whatever the entry count, so the line
/// is bounded before anything is sized from it: every index fits an
/// `i32`, the index type of the collection's own 32-bit tools, and the
/// largest matrix in the collection has ≈ 2.3e8 rows.
const MAX_DIM: usize = i32::MAX as usize;

/// Parse a Matrix Market document from a string.
pub fn read_matrix_market_str<T: Scalar>(text: &str) -> Result<CsrMatrix<T>, MmError> {
    let mut lines = text.lines().enumerate();
    let (_, banner) = lines
        .next()
        .ok_or_else(|| MmError::BadHeader("empty input".into()))?;
    let banner_lc = banner.to_ascii_lowercase();
    let fields: Vec<&str> = banner_lc.split_whitespace().collect();
    if fields.len() < 5
        || fields[0] != "%%matrixmarket"
        || fields[1] != "matrix"
        || fields[2] != "coordinate"
    {
        return Err(MmError::BadHeader(banner.to_string()));
    }
    let pattern = match fields[3] {
        "real" | "integer" => false,
        "pattern" => true,
        _ => return Err(MmError::BadHeader(banner.to_string())),
    };
    let symmetric = match fields[4] {
        "general" => false,
        "symmetric" => true,
        _ => return Err(MmError::BadHeader(banner.to_string())),
    };

    // skip comments, read the size line
    let mut size_line = None;
    for (no, l) in lines.by_ref() {
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((no, t.to_string()));
        break;
    }
    let (no, size) = size_line.ok_or_else(|| MmError::BadHeader("missing size line".into()))?;
    let dims: Vec<usize> = size
        .split_whitespace()
        .map(|s| {
            s.parse().map_err(|_| MmError::BadLine {
                line_no: no + 1,
                content: size.clone(),
            })
        })
        .collect::<Result<_, _>>()?;
    let (nrows, ncols, nnz) = match dims[..] {
        [nrows, ncols, nnz]
            if nrows <= MAX_DIM && ncols <= MAX_DIM && (!symmetric || nrows == ncols) =>
        {
            (nrows, ncols, nnz)
        }
        _ => {
            return Err(MmError::BadLine {
                line_no: no + 1,
                content: size,
            })
        }
    };
    let mut coo = CooMatrix::<T>::new(nrows, ncols);
    let mut seen = 0usize;
    for (no, l) in lines {
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let bad = || MmError::BadLine {
            line_no: no + 1,
            content: t.to_string(),
        };
        if parts.len() < 2 {
            return Err(bad());
        }
        let i: usize = parts[0].parse().map_err(|_| bad())?;
        let j: usize = parts[1].parse().map_err(|_| bad())?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(bad());
        }
        let v = if pattern {
            T::ONE
        } else {
            let x: f64 = parts.get(2).ok_or_else(bad)?.parse().map_err(|_| bad())?;
            // `nan` and `inf` parse as floats, and a finite double can
            // overflow a narrower `T`
            let v = T::from_f64(x);
            if !v.is_finite() {
                return Err(bad());
            }
            v
        };
        if symmetric {
            coo.push_sym(i - 1, j - 1, v);
        } else {
            coo.push(i - 1, j - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MmError::BadHeader(format!(
            "entry count mismatch: header says {nnz}, found {seen}"
        )));
    }
    Ok(coo.to_csr())
}

/// Read a Matrix Market file from disk.
pub fn read_matrix_market<T: Scalar>(path: &Path) -> Result<CsrMatrix<T>, MmError> {
    let text = std::fs::read_to_string(path).map_err(|e| MmError::Io(e.to_string()))?;
    read_matrix_market_str(&text)
}

/// Serialize a CSR matrix as `coordinate real general`.
pub fn write_matrix_market_str<T: Scalar>(a: &CsrMatrix<T>) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(out, "{} {} {}", a.nrows(), a.ncols(), a.nnz());
    for r in 0..a.nrows() {
        for (c, v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            let _ = writeln!(out, "{} {} {:e}", r + 1, c + 1, v.to_f64());
        }
    }
    out
}

/// Write a CSR matrix to a Matrix Market file.
pub fn write_matrix_market<T: Scalar>(a: &CsrMatrix<T>, path: &Path) -> Result<(), MmError> {
    std::fs::write(path, write_matrix_market_str(a)).map_err(|e| MmError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   2 3 3\n\
                   1 1 1.5\n\
                   2 2 -2.0\n\
                   1 3 4e-1\n";
        let a: CsrMatrix<f64> = read_matrix_market_str(doc).unwrap();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(1, 1), -2.0);
        assert_eq!(a.get(0, 2), 0.4);
    }

    #[test]
    fn parse_symmetric_expands() {
        let doc = "%%MatrixMarket matrix coordinate real symmetric\n\
                   3 3 3\n\
                   1 1 2.0\n\
                   2 1 -1.0\n\
                   3 3 5.0\n";
        let a: CsrMatrix<f64> = read_matrix_market_str(doc).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn parse_pattern() {
        let doc = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 2\n\
                   1 2\n\
                   2 1\n";
        let a: CsrMatrix<f64> = read_matrix_market_str(doc).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn roundtrip() {
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 3\n\
                   1 1 1.0\n\
                   1 2 2.0\n\
                   2 2 3.0\n";
        let a: CsrMatrix<f64> = read_matrix_market_str(doc).unwrap();
        let text = write_matrix_market_str(&a);
        let b: CsrMatrix<f64> = read_matrix_market_str(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            read_matrix_market_str::<f64>("%%MatrixMarket matrix array real general\n1 1\n1.0\n"),
            Err(MmError::BadHeader(_))
        ));
        assert!(read_matrix_market_str::<f64>("").is_err());
    }

    #[test]
    fn bad_entry_rejected() {
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 1\n\
                   3 1 1.0\n";
        assert!(matches!(
            read_matrix_market_str::<f64>(doc),
            Err(MmError::BadLine { .. })
        ));
    }

    #[test]
    fn count_mismatch_rejected() {
        let doc = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 5\n\
                   1 1 1.0\n";
        assert!(read_matrix_market_str::<f64>(doc).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let mut c = crate::coo::CooMatrix::new(2, 2);
        c.push(0, 0, 3.25);
        c.push(1, 0, -1.0);
        let a = c.to_csr();
        let dir = std::env::temp_dir().join("vbatch_mm_test.mtx");
        write_matrix_market(&a, &dir).unwrap();
        let b: CsrMatrix<f64> = read_matrix_market(&dir).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&dir);
    }
}
