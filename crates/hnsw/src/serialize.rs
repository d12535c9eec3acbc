//! Index serialization: write an HNSW index to a compact binary blob and
//! load it back — the "build once, ship the index as a static file" usage
//! (how Annoy-style indexes are shared across processes, cf. the paper's
//! related-work discussion).
//!
//! The format is a little-endian custom codec (no serde format dependency):
//!
//! ```text
//! magic "FANNHNSW" | version u32 | dist u8 | dim u32 | n u32
//! m u32 | m_max0 u32 | ef_construction u32 | level_mult f64
//! extend u8 | keep_pruned u8 | seed u64 | entry_beam u32
//! entry: present u8 [node u32, level u8]
//! levels: n × u8
//! vectors: n × dim × f32
//! links: per node, per layer 0..=level: len u32, len × u32
//! quant: present u8 [lo dim × f32, step dim × f32, codes n·dim × u8]
//! entry set: len u8, len × u32
//! mutation state: epoch u64, any u8 [tombstones n × u8]
//! ```
//!
//! The blob carries the trained SQ8 quantizer, so a loaded index searches
//! quantized-first without retraining, and the diverse entry set, so a
//! loaded index descends exactly like the one that was saved. The
//! tombstone map is one byte per row, written only when any row is
//! tombstoned — the common all-live case costs nine bytes. Only the
//! current version is read; a blob of any other version is a
//! [`LoadError::Format`].

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use fastann_data::quant::Sq8;
use fastann_data::{Distance, VectorSet};

use crate::config::HnswConfig;
use crate::index::Hnsw;

const MAGIC: &[u8; 8] = b"FANNHNSW";
const VERSION: u32 = 4;
/// Oldest version [`Hnsw::read_from`] accepts.
const MIN_VERSION: u32 = 4;

/// Errors raised when loading a serialized index.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structural problem (bad magic, truncation, inconsistent sizes).
    Format(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn dist_code(d: Distance) -> u8 {
    match d {
        Distance::L2 => 0,
        Distance::SquaredL2 => 1,
        Distance::L1 => 2,
        Distance::Chebyshev => 3,
        Distance::Cosine => 4,
        Distance::NegativeDot => 5,
    }
}

fn dist_from_code(c: u8) -> Result<Distance, LoadError> {
    Ok(match c {
        0 => Distance::L2,
        1 => Distance::SquaredL2,
        2 => Distance::L1,
        3 => Distance::Chebyshev,
        4 => Distance::Cosine,
        5 => Distance::NegativeDot,
        x => return Err(LoadError::Format(format!("unknown distance code {x}"))),
    })
}

struct Reader<R> {
    inner: R,
}

impl<R: Read> Reader<R> {
    fn u8(&mut self) -> Result<u8, LoadError> {
        let mut b = [0u8; 1];
        self.inner
            .read_exact(&mut b)
            .map_err(|_| LoadError::Format("truncated".into()))?;
        Ok(b[0])
    }
    fn u32(&mut self) -> Result<u32, LoadError> {
        let mut b = [0u8; 4];
        self.inner
            .read_exact(&mut b)
            .map_err(|_| LoadError::Format("truncated".into()))?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, LoadError> {
        let mut b = [0u8; 8];
        self.inner
            .read_exact(&mut b)
            .map_err(|_| LoadError::Format("truncated".into()))?;
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn f32(&mut self) -> Result<f32, LoadError> {
        Ok(f32::from_bits(self.u32()?))
    }
}

impl Hnsw {
    /// Serializes the index to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.len() * (self.dim() * 4 + 8));
        self.write_to(&mut out).expect("writing to Vec cannot fail");
        out
    }

    /// Writes the serialized index to any writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let cfg = self.config();
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[dist_code(self.distance())])?;
        w.write_all(&(self.dim() as u32).to_le_bytes())?;
        w.write_all(&(self.len() as u32).to_le_bytes())?;
        w.write_all(&(cfg.m as u32).to_le_bytes())?;
        w.write_all(&(cfg.m_max0 as u32).to_le_bytes())?;
        w.write_all(&(cfg.ef_construction as u32).to_le_bytes())?;
        w.write_all(&cfg.level_mult.to_bits().to_le_bytes())?;
        w.write_all(&[u8::from(cfg.extend_candidates), u8::from(cfg.keep_pruned)])?;
        w.write_all(&cfg.seed.to_le_bytes())?;
        w.write_all(&(cfg.entry_beam as u32).to_le_bytes())?;
        match self.entry_snapshot() {
            Some((node, level)) => {
                w.write_all(&[1u8])?;
                w.write_all(&node.to_le_bytes())?;
                w.write_all(&[level])?;
            }
            None => w.write_all(&[0u8])?,
        }
        for id in 0..self.len() as u32 {
            w.write_all(&[self.level(id)])?;
        }
        for x in self.vectors().as_flat() {
            w.write_all(&x.to_bits().to_le_bytes())?;
        }
        for id in 0..self.len() as u32 {
            for layer in 0..=self.level(id) as usize {
                let links = self.links_of(id, layer);
                w.write_all(&(links.len() as u32).to_le_bytes())?;
                for l in links {
                    w.write_all(&l.to_le_bytes())?;
                }
            }
        }
        match self.quantizer() {
            Some(sq) => {
                w.write_all(&[1u8])?;
                for x in sq.lo() {
                    w.write_all(&x.to_bits().to_le_bytes())?;
                }
                for x in sq.step() {
                    w.write_all(&x.to_bits().to_le_bytes())?;
                }
                w.write_all(sq.codes())?;
            }
            None => w.write_all(&[0u8])?,
        }
        let es = self.entry_set();
        w.write_all(&[es.len() as u8])?;
        for &e in es {
            w.write_all(&e.to_le_bytes())?;
        }
        w.write_all(&self.mutation_epoch().to_le_bytes())?;
        let tombs = self.tombstone_map();
        if tombs.iter().any(|&t| t) {
            w.write_all(&[1u8])?;
            for &t in tombs {
                w.write_all(&[u8::from(t)])?;
            }
        } else {
            w.write_all(&[0u8])?;
        }
        Ok(())
    }

    /// Saves the index to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Deserializes an index from bytes produced by [`Hnsw::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Hnsw, LoadError> {
        Self::read_from(&mut std::io::Cursor::new(bytes))
    }

    /// Loads an index from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Hnsw, LoadError> {
        let mut r = BufReader::new(File::open(path)?);
        Self::read_from(&mut r)
    }

    /// Reads a serialized index from any reader.
    pub fn read_from(r: &mut impl Read) -> Result<Hnsw, LoadError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| LoadError::Format("missing header".into()))?;
        if &magic != MAGIC {
            return Err(LoadError::Format("bad magic".into()));
        }
        let mut rd = Reader { inner: r };
        let version = rd.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(LoadError::Format(format!("unsupported version {version}")));
        }
        let dist = dist_from_code(rd.u8()?)?;
        let dim = rd.u32()? as usize;
        let n = rd.u32()? as usize;
        if dim == 0 {
            return Err(LoadError::Format("zero dimension".into()));
        }
        let m = rd.u32()? as usize;
        let m_max0 = rd.u32()? as usize;
        let ef_construction = rd.u32()? as usize;
        let level_mult = rd.f64()?;
        let extend_candidates = rd.u8()? != 0;
        let keep_pruned = rd.u8()? != 0;
        let seed = rd.u64()?;
        let entry_beam = rd.u32()? as usize;
        if entry_beam == 0 {
            return Err(LoadError::Format("zero entry beam".into()));
        }
        if m < 2 || m_max0 < m {
            return Err(LoadError::Format("implausible link bounds".into()));
        }
        let config = HnswConfig {
            m,
            m_max0,
            ef_construction,
            level_mult,
            extend_candidates,
            keep_pruned,
            seed,
            entry_beam,
        };
        let entry = match rd.u8()? {
            0 => None,
            1 => {
                let node = rd.u32()?;
                let level = rd.u8()?;
                if node as usize >= n {
                    return Err(LoadError::Format("entry node out of range".into()));
                }
                Some((node, level))
            }
            x => return Err(LoadError::Format(format!("bad entry flag {x}"))),
        };
        let mut levels = Vec::with_capacity(n);
        for _ in 0..n {
            levels.push(rd.u8()?);
        }
        let mut flat = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            flat.push(rd.f32()?);
        }
        let data = VectorSet::from_flat(dim, flat);
        let mut all_links: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        for &lvl in &levels {
            let mut per_layer = Vec::with_capacity(lvl as usize + 1);
            for _ in 0..=lvl as usize {
                let len = rd.u32()? as usize;
                if len > n {
                    return Err(LoadError::Format("implausible link count".into()));
                }
                let mut links = Vec::with_capacity(len);
                for _ in 0..len {
                    let l = rd.u32()?;
                    if l as usize >= n {
                        return Err(LoadError::Format("link target out of range".into()));
                    }
                    links.push(l);
                }
                per_layer.push(links);
            }
            all_links.push(per_layer);
        }
        let quant = match rd.u8()? {
            0 => None,
            1 => {
                let mut lo = Vec::with_capacity(dim);
                for _ in 0..dim {
                    lo.push(rd.f32()?);
                }
                let mut step = Vec::with_capacity(dim);
                for _ in 0..dim {
                    let s = rd.f32()?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err(LoadError::Format("non-positive quantizer step".into()));
                    }
                    step.push(s);
                }
                let mut codes = vec![0u8; n * dim];
                rd.inner
                    .read_exact(&mut codes)
                    .map_err(|_| LoadError::Format("truncated".into()))?;
                Some(Sq8::from_parts(dim, lo, step, codes))
            }
            x => return Err(LoadError::Format(format!("bad quantizer flag {x}"))),
        };
        let len = rd.u8()? as usize;
        let mut entry_set = Vec::with_capacity(len);
        for _ in 0..len {
            let e = rd.u32()?;
            if e as usize >= n {
                return Err(LoadError::Format("entry-set member out of range".into()));
            }
            entry_set.push(e);
        }
        let epoch = rd.u64()?;
        let tombstones = match rd.u8()? {
            0 => vec![false; n],
            1 => {
                let mut map = vec![0u8; n];
                rd.inner
                    .read_exact(&mut map)
                    .map_err(|_| LoadError::Format("truncated".into()))?;
                let mut tombs = Vec::with_capacity(n);
                for b in map {
                    match b {
                        0 => tombs.push(false),
                        1 => tombs.push(true),
                        x => return Err(LoadError::Format(format!("bad tombstone byte {x}"))),
                    }
                }
                tombs
            }
            x => return Err(LoadError::Format(format!("bad tombstone flag {x}"))),
        };
        Ok(Hnsw::from_parts(
            config, dist, data, levels, all_links, entry, entry_set, quant,
        )
        .with_mutation_state(tombstones, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchParams, SearchScratch, SearchStats};
    use fastann_data::{synth, Neighbor};

    fn search(idx: &Hnsw, q: &[f32], params: SearchParams) -> (Vec<Neighbor>, SearchStats) {
        idx.search(q, &params, &mut SearchScratch::default())
    }

    fn sample_index() -> Hnsw {
        let data = synth::sift_like(600, 12, 77);
        Hnsw::build(data, Distance::L2, HnswConfig::with_m(8).seed(77))
    }

    #[test]
    fn round_trip_preserves_search_results() {
        let idx = sample_index();
        let bytes = idx.to_bytes();
        let back = Hnsw::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.dim(), idx.dim());
        assert_eq!(back.edge_count(), idx.edge_count());
        for i in (0..600).step_by(41) {
            let q = idx.vectors().get(i);
            assert_eq!(
                search(&idx, q, SearchParams::new(5, 32)).0,
                search(&back, q, SearchParams::new(5, 32)).0,
                "query {i}"
            );
        }
    }

    #[test]
    fn validator_accepts_round_tripped_index() {
        let idx = sample_index();
        let back =
            Hnsw::from_bytes(&idx.to_bytes()).expect("decode of just-encoded index succeeds");
        back.validate()
            .expect("round-tripped graph upholds every structural invariant");
        // and answers bit-identically to the original
        for i in (0..600).step_by(17) {
            let q = idx.vectors().get(i);
            let (a, _) = search(&idx, q, SearchParams::new(8, 48));
            let (b, _) = search(&back, q, SearchParams::new(8, 48));
            assert_eq!(a.len(), b.len(), "query {i}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "query {i}");
                assert_eq!(
                    x.dist.to_bits(),
                    y.dist.to_bits(),
                    "query {i}: distances must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let idx = sample_index();
        let path = std::env::temp_dir().join("fastann_hnsw_test.idx");
        idx.save(&path).expect("save to temp dir succeeds");
        let back = Hnsw::load(&path).expect("load of just-saved index succeeds");
        assert_eq!(back.len(), idx.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = Hnsw::build(VectorSet::new(4), Distance::L2, HnswConfig::default());
        let back =
            Hnsw::from_bytes(&idx.to_bytes()).expect("decode of just-encoded index succeeds");
        assert!(back.is_empty());
        assert!(search(&back, &[0.0; 4], SearchParams::new(3, 8))
            .0
            .is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Hnsw::from_bytes(b"NOTANIDX________").unwrap_err();
        assert!(matches!(err, LoadError::Format(_)));
    }

    #[test]
    fn older_version_rejected() {
        let mut bytes = sample_index().to_bytes();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = Hnsw::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, LoadError::Format(m) if m.contains("unsupported version 3")),
            "{err}"
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_index().to_bytes();
        for cut in [8usize, 20, 60, bytes.len() / 2, bytes.len() - 3] {
            let err = Hnsw::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, LoadError::Format(_)),
                "cut at {cut} should fail"
            );
        }
    }

    /// Bytes the entry-set tail section occupies.
    fn entry_set_sect(idx: &Hnsw) -> usize {
        1 + 4 * idx.entry_set().len()
    }

    /// Bytes the mutation-state tail section occupies.
    fn mut_sect(idx: &Hnsw) -> usize {
        8 + 1
            + if idx.live_len() < idx.len() {
                idx.len()
            } else {
                0
            }
    }

    #[test]
    fn corrupted_link_target_rejected() {
        let idx = sample_index();
        let mut bytes = idx.to_bytes();
        // the links section ends right before the quant + entry-set +
        // mutation tail; stomp the last link id with an out-of-range value
        let quant_sect = 1 + 8 * idx.dim() + idx.len() * idx.dim();
        let last_link = bytes.len() - mut_sect(&idx) - entry_set_sect(&idx) - quant_sect - 4;
        bytes[last_link..last_link + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Hnsw::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)));
    }

    #[test]
    fn round_trip_preserves_quantizer_and_quantized_results() {
        let idx = sample_index();
        assert!(idx.quantizer().is_some(), "L2 build trains a quantizer");
        let back = Hnsw::from_bytes(&idx.to_bytes()).expect("round trip");
        let sq = back
            .quantizer()
            .expect("the blob carries the trained quantizer");
        assert_eq!(sq.len(), idx.len());
        // quantized search answers bit-identically without retraining
        for i in (0..600).step_by(53) {
            let q = idx.vectors().get(i);
            let (a, sa) = search(&idx, q, SearchParams::new(5, 32).quantized(3));
            let (b, sb) = search(&back, q, SearchParams::new(5, 32).quantized(3));
            assert_eq!(a.len(), b.len(), "query {i}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id, "query {i}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "query {i}");
            }
            assert!(sa.ndist_quant > 0, "traversal ran quantized");
            assert_eq!(sa.ndist_quant, sb.ndist_quant, "query {i}");
        }
    }

    #[test]
    fn cosine_index_serializes_without_quantizer() {
        let data = synth::deep_like(150, 8, 81);
        let idx = Hnsw::build(data, Distance::Cosine, HnswConfig::with_m(4).seed(81));
        assert!(idx.quantizer().is_none());
        let back = Hnsw::from_bytes(&idx.to_bytes()).expect("round trip");
        assert!(back.quantizer().is_none());
        // quantized search falls back to exact and still answers
        let q = back.vectors().get(3).to_vec();
        let (hits, stats) = search(&back, &q, SearchParams::new(3, 16).quantized(3));
        assert_eq!(hits[0].id, 3);
        assert_eq!(stats.ndist_quant, 0, "fallback path is exact");
    }

    #[test]
    fn corrupted_quantizer_step_rejected() {
        let idx = sample_index();
        let mut bytes = idx.to_bytes();
        let dim = idx.dim();
        let n = idx.len();
        // quant section sits before the entry-set + mutation tail:
        // flag | lo | step | codes
        let sect = 1 + 4 * dim + 4 * dim + n * dim;
        let step0 = bytes.len() - mut_sect(&idx) - entry_set_sect(&idx) - sect + 1 + 4 * dim;
        bytes[step0..step0 + 4].copy_from_slice(&0.0f32.to_bits().to_le_bytes());
        let err = Hnsw::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)));
    }

    #[test]
    fn round_trip_preserves_entry_set_and_beam() {
        let idx = sample_index();
        assert!(
            idx.entry_set().len() > 1,
            "600-point build selects a diverse entry set"
        );
        let back = Hnsw::from_bytes(&idx.to_bytes()).expect("round trip");
        assert_eq!(
            back.entry_set(),
            idx.entry_set(),
            "entry set must persist bit-identically"
        );
        assert_eq!(back.config().entry_beam, idx.config().entry_beam);
        // a non-default knob survives too
        let data = synth::sift_like(300, 8, 79);
        let wide = Hnsw::build(
            data,
            Distance::L2,
            HnswConfig::with_m(8).seed(79).entry_beam(7),
        );
        let back = Hnsw::from_bytes(&wide.to_bytes()).expect("round trip");
        assert_eq!(back.config().entry_beam, 7);
    }

    #[test]
    fn round_trip_preserves_tombstones_and_epoch() {
        let mut idx = sample_index();
        for id in [3u32, 77, 410, 599] {
            assert!(idx.remove(id));
        }
        let back = Hnsw::from_bytes(&idx.to_bytes()).expect("round trip");
        assert_eq!(back.live_len(), idx.live_len());
        assert_eq!(back.mutation_epoch(), idx.mutation_epoch());
        for id in 0..idx.len() as u32 {
            assert_eq!(back.is_live(id), idx.is_live(id), "tombstone {id}");
        }
        back.validate().expect("loaded tombstoned index is valid");
        // deleted ids stay filtered after the round trip
        let q = idx.vectors().get(77);
        assert!(search(&back, q, SearchParams::new(5, 48))
            .0
            .iter()
            .all(|h| h.id != 77));
    }

    #[test]
    fn corrupted_entry_set_member_rejected() {
        let idx = sample_index();
        let mut bytes = idx.to_bytes();
        assert!(!idx.entry_set().is_empty());
        let first = bytes.len() - mut_sect(&idx) - 4 * idx.entry_set().len();
        bytes[first..first + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Hnsw::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)));
    }

    #[test]
    fn preserves_metric() {
        let data = synth::deep_like(200, 8, 78);
        let idx = Hnsw::build(data, Distance::Cosine, HnswConfig::with_m(4).seed(78));
        let back =
            Hnsw::from_bytes(&idx.to_bytes()).expect("decode of just-encoded index succeeds");
        assert_eq!(back.distance(), Distance::Cosine);
    }
}
