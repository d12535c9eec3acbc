//! Index serialization: write an HNSW index to a compact binary blob and
//! load it back — the "build once, ship the index as a static file" usage
//! (how Annoy-style indexes are shared across processes, cf. the paper's
//! related-work discussion).
//!
//! The format is a little-endian custom codec (no serde format dependency):
//!
//! ```text
//! magic "FANNHNSW" | version u32 | dist u8 | dim u32 | n u32
//! config: m u32 | m_max0 u32 | ef_construction u32 | level_mult f64
//!         0u8 | 1u8 | seed u64 | 4u32
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
//!
//! The config record is [`HnswConfig::write_record`]'s, shared with the
//! distributed index file. `m_max0` and `level_mult` are derived from `m`.
//! The two flag bytes are the retired `extendCandidates` (off) and
//! `keepPrunedConnections` (on) knobs, and the last `u32` is the retired
//! `entry_beam` knob, pinned to the descent's fixed beam width of 4. They
//! stay in the record so the format does not move, and the reader refuses
//! a record whose stored values disagree with `m` or with those pins.
//!
//! The reader checks every link list against its layer's degree bound
//! (`m_max0` at layer 0, `m` above), and refuses an `m` above [`MAX_M`]:
//! a loaded graph reserves `2 * m` layer-0 slots per node, so a corrupt
//! header must not size that allocation.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use fastann_data::quant::Sq8;
use fastann_data::{Distance, VectorSet};

use crate::config::{HnswConfig, ENTRY_BEAM};
use crate::index::Hnsw;

const MAGIC: &[u8; 8] = b"FANNHNSW";
const VERSION: u32 = 4;
/// Oldest version [`Hnsw::read_from`] accepts.
const MIN_VERSION: u32 = 4;
/// Largest `M` a config record may declare. The HNSW paper's sweeps stop
/// at M = 64; this leaves 8× headroom.
const MAX_M: usize = 512;

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
    fn f32(&mut self) -> Result<f32, LoadError> {
        Ok(f32::from_bits(self.u32()?))
    }
    /// The next `len` bytes, allocated as they arrive.
    fn bytes(&mut self, len: u64) -> Result<Vec<u8>, LoadError> {
        let mut out = Vec::new();
        (&mut self.inner).take(len).read_to_end(&mut out)?;
        if out.len() as u64 != len {
            return Err(LoadError::Format("truncated".into()));
        }
        Ok(out)
    }
}

impl HnswConfig {
    /// Writes the config record: `m`, the derived `m_max0`,
    /// `ef_construction`, the derived `level_mult`, the flag bytes `0` and
    /// `1`, `seed` and the pinned entry-beam slot `4` — 34 bytes, little
    /// endian.
    pub fn write_record(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&(self.m as u32).to_le_bytes())?;
        w.write_all(&(self.m_max0() as u32).to_le_bytes())?;
        w.write_all(&(self.ef_construction as u32).to_le_bytes())?;
        w.write_all(&self.level_mult().to_bits().to_le_bytes())?;
        w.write_all(&[0, 1])?;
        w.write_all(&self.seed.to_le_bytes())?;
        w.write_all(&(ENTRY_BEAM as u32).to_le_bytes())
    }

    /// Reads a record written by [`HnswConfig::write_record`].
    ///
    /// # Errors
    /// [`LoadError::Format`] on truncation, an `m` below 2 or above the
    /// cap, a stored `m_max0`, `level_mult` or flag byte that is not the
    /// one `m` derives, an entry-beam slot other than `4`, or a zero
    /// `ef_construction`.
    pub fn read_record(r: &mut impl Read) -> Result<HnswConfig, LoadError> {
        let mut rd = Reader { inner: r };
        let m = rd.u32()? as usize;
        let m_max0 = rd.u32()? as usize;
        let ef_construction = rd.u32()? as usize;
        let level_mult = rd.u64()?;
        let flags = [rd.u8()?, rd.u8()?];
        let seed = rd.u64()?;
        let beam_slot = rd.u32()?;
        if m < 2 {
            return Err(LoadError::Format("implausible link bounds".into()));
        }
        if m > MAX_M {
            return Err(LoadError::Format(format!("m {m} above the cap of {MAX_M}")));
        }
        let config = HnswConfig {
            m,
            ef_construction,
            seed,
        };
        if m_max0 != config.m_max0() {
            return Err(LoadError::Format(format!(
                "m_max0 {m_max0} disagrees with m {m}"
            )));
        }
        if level_mult != config.level_mult().to_bits() {
            return Err(LoadError::Format(format!(
                "level_mult disagrees with m {m}"
            )));
        }
        if flags != [0, 1] {
            return Err(LoadError::Format(format!("bad config flags {flags:?}")));
        }
        if beam_slot != ENTRY_BEAM as u32 {
            return Err(LoadError::Format(format!(
                "entry beam {beam_slot} is not the fixed {ENTRY_BEAM}"
            )));
        }
        if ef_construction == 0 {
            return Err(LoadError::Format("zero construction beam".into()));
        }
        Ok(config)
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
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[self.distance().code()])?;
        w.write_all(&(self.dim() as u32).to_le_bytes())?;
        w.write_all(&(self.len() as u32).to_le_bytes())?;
        self.config().write_record(w)?;
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
        let code = rd.u8()?;
        let dist = Distance::from_code(code)
            .ok_or_else(|| LoadError::Format(format!("unknown distance code {code}")))?;
        let dim = rd.u32()? as usize;
        let n = rd.u32()? as usize;
        if dim == 0 {
            return Err(LoadError::Format("zero dimension".into()));
        }
        let config = HnswConfig::read_record(&mut rd.inner)?;
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
        // Read the n-sized sections through `take`: a corrupt `n` or `dim`
        // then costs only the bytes actually present, never an allocation
        // sized by the header.
        let levels = rd.bytes(n as u64)?;
        let flat_len = (n as u64 * dim as u64)
            .checked_mul(4)
            .ok_or_else(|| LoadError::Format("implausible vector section".into()))?;
        let flat = rd
            .bytes(flat_len)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let data = VectorSet::from_flat(dim, flat);
        let mut all_links: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n);
        for &lvl in &levels {
            let mut per_layer = Vec::with_capacity(lvl as usize + 1);
            for layer in 0..=lvl as usize {
                let len = rd.u32()? as usize;
                if len > n {
                    return Err(LoadError::Format("implausible link count".into()));
                }
                if len > config.max_links(layer) {
                    return Err(LoadError::Format(format!(
                        "layer {layer} link list of {len} exceeds degree bound {}",
                        config.max_links(layer)
                    )));
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
                let mut lo = Vec::new();
                for _ in 0..dim {
                    lo.push(rd.f32()?);
                }
                let mut step = Vec::new();
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

    /// `bytes` with `patch` written at `at`.
    fn patched(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + patch.len()].copy_from_slice(patch);
        out
    }

    /// `bytes` with its config record rewritten to `cfg`'s.
    fn with_record(bytes: &[u8], cfg: HnswConfig) -> Vec<u8> {
        let mut rec = Vec::new();
        cfg.write_record(&mut rec)
            .expect("writing to a Vec cannot fail");
        patched(bytes, M_AT, &rec)
    }

    /// Asserts `bytes` fail to load with a format error naming `parts`.
    fn assert_format_err(bytes: &[u8], parts: &[&str]) {
        match Hnsw::from_bytes(bytes) {
            Err(LoadError::Format(m)) => assert!(parts.iter().all(|p| m.contains(p)), "{m}"),
            other => panic!("expected a format error naming {parts:?}, got {other:?}"),
        }
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
        assert_format_err(b"NOTANIDX________", &["bad magic"]);
    }

    #[test]
    fn older_version_rejected() {
        let mut bytes = sample_index().to_bytes();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert_format_err(&bytes, &["unsupported version 3"]);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_index().to_bytes();
        for cut in [8usize, 20, 60, bytes.len() / 2, bytes.len() - 3] {
            assert_format_err(&bytes[..cut], &[]);
        }
        // a dimension or row count the blob does not hold is truncation,
        // not an allocation sized by the header
        for at in [13, 17] {
            assert_format_err(
                &patched(&bytes, at, &u32::MAX.to_le_bytes()),
                &["truncated"],
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
        assert_format_err(&bytes, &[]);
    }

    /// Byte offset of the config record (`m` first, `m_max0` after it).
    const M_AT: usize = 8 + 4 + 1 + 4 + 4;
    /// Byte offset of the record's `level_mult` and flag bytes.
    const MULT_AT: usize = M_AT + 12;
    const FLAGS_AT: usize = MULT_AT + 8;
    /// Byte offset of the retired entry-beam slot, after the flags and
    /// `seed`.
    const BEAM_AT: usize = FLAGS_AT + 10;

    #[test]
    fn over_degree_link_list_rejected() {
        let idx = sample_index(); // m = 8, m_max0 = 16
        let bytes = idx.to_bytes();
        // offset of the first upper-layer node's layer-1 list length
        let node = (0..idx.len() as u32)
            .find(|&id| idx.level(id) >= 1)
            .expect("a 600-point build has upper-layer nodes");
        let entry_sect = if idx.entry_snapshot().is_some() { 6 } else { 1 };
        let mut at = M_AT + 34 + entry_sect + idx.len() + 4 * idx.len() * idx.dim();
        for id in 0..node {
            for layer in 0..=idx.level(id) as usize {
                at += 4 + 4 * idx.links_of(id, layer).len();
            }
        }
        at += 4 + 4 * idx.links_of(node, 0).len();
        for (bad, parts) in [
            // a consistent record with m = 4 makes every layer-0 list
            // longer than 8 over-degree
            (
                with_record(&bytes, HnswConfig::with_m(4)),
                &["layer 0 link list", "degree bound 8"][..],
            ),
            (
                patched(&bytes, at, &9u32.to_le_bytes()),
                &["layer 1 link list of 9 exceeds degree bound 8"],
            ),
            // tightening one stored bound alone makes the record
            // disagree with itself
            (
                patched(&bytes, M_AT + 4, &8u32.to_le_bytes()),
                &["m_max0 8 disagrees with m 8"],
            ),
            (
                patched(&bytes, M_AT, &2u32.to_le_bytes()),
                &["m_max0 16 disagrees with m 2"],
            ),
        ] {
            assert_format_err(&bad, parts);
        }
    }

    #[test]
    fn absurd_m_max0_rejected() {
        let bytes = sample_index().to_bytes();
        let max = u32::MAX.to_le_bytes();
        for (bad, msg) in [
            (
                patched(&bytes, M_AT + 4, &1025u32.to_le_bytes()),
                "m_max0 1025 disagrees",
            ),
            (patched(&bytes, M_AT + 4, &max), "disagrees with m 8"),
            // m itself is capped, so the 2 * m layer-0 slab stays bounded
            (
                with_record(&bytes, HnswConfig::with_m(MAX_M + 1)),
                "m 513 above the cap of 512",
            ),
            (patched(&bytes, M_AT, &max), "above the cap"),
            // a level_mult other than 1 / ln(m)
            (
                patched(&bytes, MULT_AT, &[bytes[MULT_AT] ^ 1]),
                "level_mult disagrees",
            ),
            // flag bytes other than the retired knobs' fixed 0 and 1
            (patched(&bytes, FLAGS_AT, &[1, 1]), "bad config flags"),
            (patched(&bytes, FLAGS_AT, &[0, 0]), "bad config flags"),
            (patched(&bytes, FLAGS_AT, &[0, 2]), "bad config flags"),
            // an entry-beam slot other than the retired knob's fixed 4
            (
                patched(&bytes, BEAM_AT, &0u32.to_le_bytes()),
                "entry beam 0 is not the fixed 4",
            ),
            (
                patched(&bytes, BEAM_AT, &1u32.to_le_bytes()),
                "entry beam 1 is not the fixed 4",
            ),
        ] {
            assert_format_err(&bad, &[msg]);
        }
        let at_cap = Hnsw::from_bytes(&with_record(&bytes, HnswConfig::with_m(MAX_M)))
            .expect("the cap is inclusive, and every list fits the wider bounds");
        assert_eq!(at_cap.config().m, MAX_M);
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
            let (a, sa) = search(&idx, q, SearchParams::new(5, 32).quantized(true));
            let (b, sb) = search(&back, q, SearchParams::new(5, 32).quantized(true));
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
        let (hits, stats) = search(&back, &q, SearchParams::new(3, 16).quantized(true));
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
        assert_format_err(&bytes, &[]);
    }

    #[test]
    fn round_trip_preserves_entry_set() {
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
        assert_format_err(&bytes, &[]);
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
