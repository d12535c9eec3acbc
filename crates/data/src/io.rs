//! Readers and writers for the TEXMEX vector file formats.
//!
//! The datasets the paper evaluates on (ANN_SIFT1B, DEEP1B, ANN_GIST1M) ship
//! in the `.fvecs` / `.bvecs` / `.ivecs` formats from the INRIA TEXMEX
//! corpus: each vector is stored as a little-endian `i32` dimension header
//! followed by `dim` components (`f32`, `u8`, or `i32` respectively).
//!
//! We implement the formats so users with the real corpora can load them
//! directly; the test-suite and benchmarks use the synthetic generators in
//! [`crate::synth`] instead (billion-point files do not fit this host).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::vector::VectorSet;

/// Errors raised by the vector-file codecs.
#[derive(Debug)]
pub enum VecsError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem in the file (bad header, truncation, mixed dims).
    Format(String),
}

impl std::fmt::Display for VecsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VecsError::Io(e) => write!(f, "io error: {e}"),
            VecsError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for VecsError {}

impl From<io::Error> for VecsError {
    fn from(e: io::Error) -> Self {
        VecsError::Io(e)
    }
}

fn read_dim_header(r: &mut impl Read) -> Result<Option<usize>, VecsError> {
    let mut hdr = [0u8; 4];
    match r.read_exact(&mut hdr) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let d = i32::from_le_bytes(hdr);
    if d <= 0 {
        return Err(VecsError::Format(format!(
            "non-positive dimension header {d}"
        )));
    }
    Ok(Some(d as usize))
}

/// Reads up to `limit` records of `width`-byte components from a TEXMEX
/// stream, decoding each component with `decode` and handing every row to
/// `push`. With `uniform`, a record whose dimension differs from the first
/// one is rejected on its header, before its body is read. Bodies are read
/// through [`Read::take`], so memory grows only with the bytes actually
/// present, whatever a header claims.
fn read_records<T>(
    r: &mut impl Read,
    limit: Option<usize>,
    width: usize,
    uniform: bool,
    truncated: &str,
    decode: impl Fn(&[u8]) -> T,
    mut push: impl FnMut(&[T]),
) -> Result<(), VecsError> {
    let mut first_dim = None;
    let mut buf: Vec<u8> = Vec::new();
    let mut row: Vec<T> = Vec::new();
    let mut count = 0usize;
    while limit.is_none_or(|l| count < l) {
        let Some(dim) = read_dim_header(r)? else {
            break;
        };
        let first = *first_dim.get_or_insert(dim);
        if uniform && first != dim {
            return Err(VecsError::Format(format!(
                "mixed dimensions: {first} then {dim}"
            )));
        }
        let len = dim as u64 * width as u64;
        buf.clear();
        r.take(len).read_to_end(&mut buf)?;
        if buf.len() as u64 != len {
            return Err(VecsError::Format(truncated.into()));
        }
        row.clear();
        row.extend(buf.chunks_exact(width).map(&decode));
        push(&row);
        count += 1;
    }
    Ok(())
}

/// Reads a TEXMEX vector stream into a [`VectorSet`]; `what` names the
/// format in the empty-stream error.
fn read_vector_set(
    r: &mut impl Read,
    limit: Option<usize>,
    width: usize,
    what: &str,
    decode: impl Fn(&[u8]) -> f32,
) -> Result<VectorSet, VecsError> {
    let mut out: Option<VectorSet> = None;
    read_records(
        r,
        limit,
        width,
        true,
        "truncated vector body",
        decode,
        |row| {
            out.get_or_insert_with(|| VectorSet::new(row.len()))
                .push(row)
        },
    )?;
    out.ok_or_else(|| VecsError::Format(format!("empty {what} stream")))
}

/// Reads an `.fvecs` file (`f32` components). `limit` caps the number of
/// vectors read (`None` reads all).
pub fn read_fvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<VectorSet, VecsError> {
    let mut r = BufReader::new(File::open(path)?);
    read_fvecs_from(&mut r, limit)
}

/// Reads `.fvecs` data from any reader. A NaN or infinite component is a
/// format error naming its record: no distance to such a vector orders.
pub fn read_fvecs_from(r: &mut impl Read, limit: Option<usize>) -> Result<VectorSet, VecsError> {
    let vs = read_vector_set(r, limit, 4, "fvecs", |c| {
        f32::from_le_bytes([c[0], c[1], c[2], c[3]])
    })?;
    for (i, row) in vs.iter().enumerate() {
        if let Some(x) = row.iter().find(|x| !x.is_finite()) {
            return Err(VecsError::Format(format!(
                "record {i} has a non-finite component {x}"
            )));
        }
    }
    Ok(vs)
}

/// Reads a `.bvecs` file (`u8` components, e.g. ANN_SIFT1B base vectors),
/// widening to `f32`.
pub fn read_bvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<VectorSet, VecsError> {
    let mut r = BufReader::new(File::open(path)?);
    read_bvecs_from(&mut r, limit)
}

/// Reads `.bvecs` data from any reader.
pub fn read_bvecs_from(r: &mut impl Read, limit: Option<usize>) -> Result<VectorSet, VecsError> {
    read_vector_set(r, limit, 1, "bvecs", |c| c[0] as f32)
}

/// Reads an `.ivecs` file — the TEXMEX ground-truth format: each record is
/// the list of true neighbour ids for one query.
pub fn read_ivecs(
    path: impl AsRef<Path>,
    limit: Option<usize>,
) -> Result<Vec<Vec<u32>>, VecsError> {
    let mut r = BufReader::new(File::open(path)?);
    read_ivecs_from(&mut r, limit)
}

/// Reads `.ivecs` data from any reader.
pub fn read_ivecs_from(
    r: &mut impl Read,
    limit: Option<usize>,
) -> Result<Vec<Vec<u32>>, VecsError> {
    let mut out = Vec::new();
    read_records(
        r,
        limit,
        4,
        false,
        "truncated record body",
        |c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u32,
        |row| out.push(row.to_vec()),
    )?;
    if out.is_empty() {
        return Err(VecsError::Format("empty ivecs stream".into()));
    }
    Ok(out)
}

/// Writes a [`VectorSet`] in `.fvecs` format.
pub fn write_fvecs(path: impl AsRef<Path>, vs: &VectorSet) -> Result<(), VecsError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_fvecs_to(&mut w, vs)
}

/// Writes `.fvecs` data to any writer.
pub fn write_fvecs_to(w: &mut impl Write, vs: &VectorSet) -> Result<(), VecsError> {
    let dim = vs.dim() as i32;
    for row in vs.iter() {
        w.write_all(&dim.to_le_bytes())?;
        for &x in row {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes ground-truth id lists in `.ivecs` format.
pub fn write_ivecs_to(w: &mut impl Write, rows: &[Vec<u32>]) -> Result<(), VecsError> {
    for row in rows {
        w.write_all(&(row.len() as i32).to_le_bytes())?;
        for &id in row {
            w.write_all(&(id as i32).to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fvecs_round_trip() {
        let vs = VectorSet::from_flat(3, vec![1.0, 2.0, 3.0, -4.5, 0.0, 7.25]);
        let mut buf = Vec::new();
        write_fvecs_to(&mut buf, &vs).expect("write to Vec never fails");
        let back = read_fvecs_from(&mut Cursor::new(buf), None).expect("round-trip read succeeds");
        assert_eq!(back, vs);
    }

    #[test]
    fn fvecs_limit_caps_rows() {
        let vs = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut buf = Vec::new();
        write_fvecs_to(&mut buf, &vs).expect("write to Vec never fails");
        let back = read_fvecs_from(&mut Cursor::new(buf), Some(2)).expect("bounded read succeeds");
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(1), &[3.0, 4.0]);
    }

    #[test]
    fn ivecs_round_trip() {
        let rows = vec![vec![1u32, 2, 3], vec![9, 8, 7]];
        let mut buf = Vec::new();
        write_ivecs_to(&mut buf, &rows).expect("write to Vec never fails");
        let back = read_ivecs_from(&mut Cursor::new(buf), None).expect("round-trip read succeeds");
        assert_eq!(back, rows);
    }

    #[test]
    fn bvecs_widen_to_f32() {
        // hand-build a bvecs stream: dim=2, bytes [5, 250]
        let mut buf = Vec::new();
        buf.extend_from_slice(&2i32.to_le_bytes());
        buf.extend_from_slice(&[5u8, 250u8]);
        let back = read_bvecs_from(&mut Cursor::new(buf), None).expect("round-trip read succeeds");
        assert_eq!(back.get(0), &[5.0, 250.0]);
    }

    #[test]
    fn truncated_body_is_format_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3i32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes()); // only 1 of 3 floats
        let err = read_fvecs_from(&mut Cursor::new(buf), None).unwrap_err();
        assert!(matches!(err, VecsError::Format(_)));

        // A header claiming i32::MAX components over a 4-byte body: each
        // reader must reject it without first allocating what it claims.
        let mut huge = Vec::new();
        huge.extend_from_slice(&i32::MAX.to_le_bytes());
        huge.extend_from_slice(&1.0f32.to_le_bytes());
        let fvecs = read_fvecs_from(&mut Cursor::new(&huge), None).unwrap_err();
        let bvecs = read_bvecs_from(&mut Cursor::new(&huge), None).unwrap_err();
        let ivecs = read_ivecs_from(&mut Cursor::new(&huge), None).unwrap_err();
        assert!(matches!(fvecs, VecsError::Format(_)));
        assert!(matches!(bvecs, VecsError::Format(_)));
        assert!(matches!(ivecs, VecsError::Format(_)));
    }

    #[test]
    fn negative_dim_is_format_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(-1i32).to_le_bytes());
        let err = read_fvecs_from(&mut Cursor::new(buf), None).unwrap_err();
        assert!(matches!(err, VecsError::Format(_)));
    }

    #[test]
    fn mixed_dims_is_format_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1i32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2i32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2.0f32.to_le_bytes());
        let err = read_fvecs_from(&mut Cursor::new(buf), None).unwrap_err();
        assert!(matches!(err, VecsError::Format(_)));
    }

    #[test]
    fn non_finite_components_are_format_errors() {
        for (bad, shown) in [(f32::NAN, "NaN"), (f32::NEG_INFINITY, "-inf")] {
            let vs = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, bad]);
            let mut buf = Vec::new();
            write_fvecs_to(&mut buf, &vs).expect("write to Vec never fails");
            let err = read_fvecs_from(&mut Cursor::new(buf), None).unwrap_err();
            let VecsError::Format(msg) = err else {
                panic!("expected a format error, got {err}");
            };
            assert_eq!(msg, format!("record 2 has a non-finite component {shown}"));
        }
    }

    #[test]
    fn empty_stream_is_error() {
        let err = read_fvecs_from(&mut Cursor::new(Vec::new()), None).unwrap_err();
        assert!(matches!(err, VecsError::Format(_)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("fastann_io_test");
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        let path = dir.join("t.fvecs");
        let vs = VectorSet::from_flat(4, (0..16).map(|i| i as f32).collect());
        write_fvecs(&path, &vs).expect("write to temp file succeeds");
        let back = read_fvecs(&path, None).expect("read back from temp file succeeds");
        assert_eq!(back, vs);
        std::fs::remove_file(&path).ok();
    }
}
