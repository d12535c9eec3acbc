//! Distributed-index persistence: save a built [`DistIndex`] to one file
//! and load it back — "build once on the cluster, serve many batches
//! later" without paying construction again.
//!
//! Format (little endian):
//!
//! ```text
//! header:  magic "FANNDIST" | version u32 | payload_len u64 | fnv1a64 u64
//! payload: metric u8 | n_cores u32 | cores_per_node u32 | seed u64
//!          hnsw: config record (HnswConfig::write_record, 34 bytes)
//!          route: margin f32 | max_partitions u64
//!          router: len u64 | PartitionTree bytes    (VP-tree routers only)
//!          partitions: n_partitions × [ids: len u32, u32… | hnsw: len u64, bytes…]
//! ```
//!
//! The header carries the payload length and an FNV-1a-64 checksum over the
//! payload bytes, so a truncated or bit-flipped snapshot fails loading with
//! a typed error ([`PersistError::Format`] / [`PersistError::Checksum`])
//! instead of deserializing garbage into a live index.
//!
//! The HNSW record is the one every partition blob also carries, so a
//! loaded index rebuilds partitions (compaction, splits) with exactly the
//! configuration it was built with. Version 2 files, which kept only four
//! of its fields, are refused.
//!
//! `n_partitions` is the router skeleton's leaf count: `n_cores` after a
//! build, more once [`crate::MutationRequest::split_above`] has split
//! partitions (split-created ids wrap onto the existing cores).
//!
//! Only the paper's configuration (VP-tree router + HNSW local indexes) is
//! persistable; exact/brute local indexes rebuild quickly from data, and
//! flat-pivot indexes exist as an experimental baseline.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use fastann_data::Distance;
use fastann_hnsw::{Hnsw, HnswConfig};
use fastann_vptree::PartitionTree;

use crate::build::{DistIndex, Partition};
use crate::config::EngineConfig;
use crate::local::LocalIndex;
use crate::router::Router;
use crate::stats::BuildStats;

const MAGIC: &[u8; 8] = b"FANNDIST";
const VERSION: u32 = 3;

/// FNV-1a 64-bit over `bytes` — the snapshot payload checksum. Chosen for
/// being dependency-free and byte-order independent; this guards against
/// accidental corruption (truncation, bit rot, partial writes), not
/// adversaries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors raised when persisting or loading a distributed index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structural problem in the file.
    Format(String),
    /// The payload bytes do not hash to the checksum the header recorded —
    /// the snapshot was corrupted after it was written.
    Checksum {
        /// Checksum recorded in the snapshot header.
        expected: u64,
        /// Checksum computed over the payload actually read.
        found: u64,
    },
    /// The index configuration cannot be persisted (non-HNSW local index
    /// or non-VP-tree router).
    Unsupported(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
            PersistError::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            PersistError::Unsupported(m) => write!(f, "unsupported configuration: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn rd_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), PersistError> {
    r.read_exact(buf)
        .map_err(|_| PersistError::Format("truncated".into()))
}

fn rd_u32(r: &mut impl Read) -> Result<u32, PersistError> {
    let mut b = [0u8; 4];
    rd_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn rd_u64(r: &mut impl Read) -> Result<u64, PersistError> {
    let mut b = [0u8; 8];
    rd_exact(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Splits a section of a length read from the file off the payload,
/// without allocating: a corrupt length can claim no more than is left.
fn rd_section<'p>(r: &mut &'p [u8], len: u64) -> Result<&'p [u8], PersistError> {
    if len > r.len() as u64 {
        return Err(PersistError::Format(format!(
            "section of {len} bytes overruns the payload"
        )));
    }
    let (head, rest) = r.split_at(len as usize);
    *r = rest;
    Ok(head)
}

impl DistIndex {
    /// Writes the index to `path`.
    ///
    /// # Errors
    /// [`PersistError::Unsupported`] unless every partition is HNSW-backed
    /// and the router is a VP tree; IO errors pass through.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let Router::VpTree(tree) = &*self.router else {
            return Err(PersistError::Unsupported("only VP-tree routers persist"));
        };
        // Build the payload in memory first: the header needs its length
        // and checksum, and the indexes being persisted fit in memory by
        // construction.
        let mut payload: Vec<u8> = Vec::new();
        payload.push(self.config.metric.code());
        payload.extend_from_slice(&(self.config.n_cores as u32).to_le_bytes());
        payload.extend_from_slice(&(self.config.cores_per_node as u32).to_le_bytes());
        payload.extend_from_slice(&self.config.seed.to_le_bytes());
        self.config.hnsw.write_record(&mut payload)?;
        payload.extend_from_slice(&self.config.route.margin_frac.to_bits().to_le_bytes());
        payload.extend_from_slice(&(self.config.route.max_partitions as u64).to_le_bytes());
        let skel = tree.to_bytes();
        payload.extend_from_slice(&(skel.len() as u64).to_le_bytes());
        payload.extend_from_slice(&skel);
        for p in self.partitions.iter() {
            let LocalIndex::Hnsw(hnsw) = &p.index else {
                return Err(PersistError::Unsupported("only HNSW partitions persist"));
            };
            payload.extend_from_slice(&(p.global_ids.len() as u32).to_le_bytes());
            for &id in &p.global_ids {
                payload.extend_from_slice(&id.to_le_bytes());
            }
            let bytes = hnsw.to_bytes();
            payload.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            payload.extend_from_slice(&bytes);
        }

        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&fnv1a64(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
        w.flush()?;
        Ok(())
    }

    /// Loads an index previously written by [`DistIndex::save`].
    ///
    /// Construction statistics are not persisted; the loaded index carries
    /// partition sizes only.
    pub fn load(path: impl AsRef<Path>) -> Result<DistIndex, PersistError> {
        // magic 8 + version 4 + payload_len 8 + checksum 8
        const HEADER_LEN: u64 = 28;
        let file_len = std::fs::metadata(path.as_ref())?.len();
        let mut file = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        rd_exact(&mut file, &mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::Format("bad magic".into()));
        }
        let version = rd_u32(&mut file)?;
        if version != VERSION {
            return Err(PersistError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let payload_len = rd_u64(&mut file)? as usize;
        let expected = rd_u64(&mut file)?;
        // validate the recorded length against the real file size *before*
        // allocating: a corrupted length field must not drive a huge
        // allocation, and a mismatch (truncation, trailing garbage) is a
        // structural error in its own right
        if file_len < HEADER_LEN || payload_len as u64 != file_len - HEADER_LEN {
            return Err(PersistError::Format(format!(
                "payload length {payload_len} does not match file size {file_len}"
            )));
        }
        let mut payload = vec![0u8; payload_len];
        rd_exact(&mut file, &mut payload)?;
        let found = fnv1a64(&payload);
        if found != expected {
            return Err(PersistError::Checksum { expected, found });
        }

        let mut r: &[u8] = &payload;
        let mut mc = [0u8; 1];
        rd_exact(&mut r, &mut mc)?;
        let metric = Distance::from_code(mc[0])
            .ok_or_else(|| PersistError::Format(format!("unknown metric code {}", mc[0])))?;
        let n_cores = rd_u32(&mut r)? as usize;
        let cores_per_node = rd_u32(&mut r)? as usize;
        let seed = rd_u64(&mut r)?;
        if n_cores == 0
            || !n_cores.is_power_of_two()
            || !n_cores.is_multiple_of(cores_per_node.max(1))
        {
            return Err(PersistError::Format("implausible cluster shape".into()));
        }
        let hnsw_config = HnswConfig::read_record(&mut r)
            .map_err(|e| PersistError::Format(format!("hnsw config: {e}")))?;
        let margin_frac = f32::from_bits(rd_u32(&mut r)?);
        let max_partitions = rd_u64(&mut r)? as usize;

        let skel_len = rd_u64(&mut r)?;
        let skel = rd_section(&mut r, skel_len)?;
        let tree = PartitionTree::from_bytes(skel, metric)
            .map_err(|e| PersistError::Format(format!("router skeleton: {e}")))?;
        // one partition per core, plus any a split added (ids ≥ n_cores)
        let n_partitions = tree.n_partitions();
        if n_partitions < n_cores {
            return Err(PersistError::Format(format!(
                "skeleton holds {n_partitions} partitions for {n_cores} cores"
            )));
        }

        let mut partitions = Vec::with_capacity(n_partitions);
        for pid in 0..n_partitions {
            let n_ids = rd_u32(&mut r)?;
            let ids: Vec<u32> = rd_section(&mut r, 4 * u64::from(n_ids))?
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            let blob_len = rd_u64(&mut r)?;
            let hnsw = Hnsw::from_bytes(rd_section(&mut r, blob_len)?)
                .map_err(|e| PersistError::Format(format!("partition {pid}: {e}")))?;
            if hnsw.len() != ids.len() {
                return Err(PersistError::Format(format!(
                    "partition {pid}: {} ids but {} vectors",
                    ids.len(),
                    hnsw.len()
                )));
            }
            partitions.push(Partition {
                id: pid as u32,
                global_ids: ids,
                index: LocalIndex::Hnsw(hnsw),
            });
        }
        if !r.is_empty() {
            return Err(PersistError::Format(format!(
                "{} unparsed bytes inside payload",
                r.len()
            )));
        }
        // the router measures queries against the vantage vectors, and each
        // probe against its partition's rows: one dimension for all
        let mut dims = tree.dim().into_iter().chain(
            partitions
                .iter()
                .filter(|p| !p.index.is_empty())
                .map(|p| p.index.dim()),
        );
        if let Some(d) = dims.next() {
            if let Some(e) = dims.find(|&e| e != d) {
                return Err(PersistError::Format(format!(
                    "vectors of dimension {d} and {e} in one index"
                )));
            }
        }

        let mut config = EngineConfig::new(n_cores, cores_per_node);
        config.metric = metric;
        config.seed = seed;
        config.hnsw = hnsw_config;
        config.route.margin_frac = margin_frac;
        config.route.max_partitions = max_partitions;

        let build_stats = BuildStats {
            partition_sizes: partitions.iter().map(|p| p.global_ids.len()).collect(),
            ..BuildStats::default()
        };
        Ok(DistIndex {
            config,
            partitions: Arc::new(partitions),
            router: Arc::new(Router::VpTree(tree)),
            build_stats,
            mutation_epoch: 0,
            mutation_log: crate::mutation::MutationLog::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchOptions;
    use crate::request::SearchRequest;
    use fastann_data::synth;
    use fastann_hnsw::HnswConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fastann_persist_{name}.idx"))
    }

    fn build_one(seed: u64) -> (fastann_data::VectorSet, DistIndex) {
        let data = synth::sift_like(2_000, 12, seed);
        let cfg = EngineConfig::new(8, 2)
            .with_hnsw(HnswConfig::with_m(8).ef_construction(40).seed(seed))
            .with_seed(seed);
        (data.clone(), DistIndex::build(&data, cfg))
    }

    #[test]
    fn save_load_preserves_results() {
        let (data, index) = build_one(81);
        let path = tmp("roundtrip");
        index.save(&path).expect("save");
        let back = DistIndex::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(back.n_partitions(), index.n_partitions());
        assert_eq!(back.dim(), index.dim());
        let queries = synth::queries_near(&data, 15, 0.02, 82);
        let a = SearchRequest::new(&index, &queries)
            .opts(SearchOptions::new(10))
            .run();
        let b = SearchRequest::new(&back, &queries)
            .opts(SearchOptions::new(10))
            .run();
        assert_eq!(a.results, b.results, "loaded index must answer identically");
    }

    #[test]
    fn validator_accepts_loaded_index() {
        let (data, index) = build_one(86);
        let path = tmp("validate");
        index.save(&path).expect("save to temp dir succeeds");
        let back = DistIndex::load(&path).expect("load of just-saved index succeeds");
        std::fs::remove_file(&path).ok();

        // every loaded partition graph upholds the HNSW invariants …
        for part in back.partitions.iter() {
            let crate::local::LocalIndex::Hnsw(h) = &part.index else {
                panic!("persisted engine partitions are HNSW");
            };
            h.validate()
                .expect("loaded partition upholds every structural invariant");
        }
        // … the router skeleton upholds the VP-tree invariants …
        let Router::VpTree(tree) = back.router.as_ref() else {
            panic!("persisted engine router is a VP tree");
        };
        tree.validate()
            .expect("loaded router upholds every structural invariant");

        // … and the loaded index answers bit-identically.
        let queries = synth::queries_near(&data, 12, 0.02, 87);
        let a = SearchRequest::new(&index, &queries)
            .opts(SearchOptions::new(10))
            .run();
        let b = SearchRequest::new(&back, &queries)
            .opts(SearchOptions::new(10))
            .run();
        assert_eq!(a.results, b.results, "results must be bit-identical");
        for (ra, rb) in a.results.iter().zip(&b.results) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
        }
    }

    #[test]
    fn non_hnsw_index_refuses_to_save() {
        let data = synth::sift_like(500, 8, 83);
        let cfg = EngineConfig::new(4, 2)
            .with_local_index(crate::local::LocalIndexKind::VpExact)
            .with_seed(83);
        let index = DistIndex::build(&data, cfg);
        let err = index.save(tmp("refuse")).unwrap_err();
        assert!(matches!(err, PersistError::Unsupported(_)));
    }

    #[test]
    fn flat_pivot_router_refuses_to_save() {
        let data = synth::sift_like(500, 8, 84);
        let index = DistIndex::build_flat_pivot(&data, EngineConfig::new(4, 2).with_seed(84));
        let err = index.save(tmp("refuse2")).unwrap_err();
        assert!(matches!(err, PersistError::Unsupported(_)));
    }

    #[test]
    fn corrupted_file_rejected() {
        let (_, index) = build_one(85);
        let path = tmp("corrupt");
        index.save(&path).expect("save to temp dir succeeds");
        let clean = std::fs::read(&path).expect("saved file is readable");
        let truncated = clean[..clean.len() / 2].to_vec();
        // A checksum is no MAC: whoever edits a file can recompute it. The
        // root's vantage length (after header 28, metric and shape 17, hnsw
        // record 34, route 12, skeleton length 8, tag and mu 8) set to
        // u32::MAX must fail without sizing an allocation.
        let mut crafted = clean.clone();
        let at = 28 + 17 + 34 + 12 + 8 + 8;
        assert_eq!(crafted[at..at + 4], 12u32.to_le_bytes(), "vantage length");
        crafted[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = fnv1a64(&crafted[28..]);
        crafted[20..28].copy_from_slice(&sum.to_le_bytes());
        for (bytes, msg) in [(truncated, "does not match"), (crafted, "overruns")] {
            std::fs::write(&path, &bytes).expect("rewrite of corrupted bytes succeeds");
            let Err(PersistError::Format(m)) = DistIndex::load(&path) else {
                panic!("corrupted file must fail as a format error")
            };
            assert!(m.contains(msg), "{m}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Drops the last component of the first `count` vantage vectors, in
    /// preorder, of a serialized skeleton.
    fn shorten_vantages(skel: &[u8], count: usize) -> Vec<u8> {
        let word = |at: usize| u32::from_le_bytes(skel[at..at + 4].try_into().expect("4 bytes"));
        let (mut out, mut at, mut left) = (Vec::new(), 0, count);
        while at < skel.len() {
            if word(at) == 0 {
                // leaf: tag and partition id
                out.extend_from_slice(&skel[at..at + 8]);
                at += 8;
                continue;
            }
            // inner: tag, mu, length, components
            let len = word(at + 8) as usize;
            let keep = if left > 0 { len - 1 } else { len };
            left = left.saturating_sub(1);
            out.extend_from_slice(&skel[at..at + 8]);
            out.extend_from_slice(&(keep as u32).to_le_bytes());
            out.extend_from_slice(&skel[at + 12..at + 12 + 4 * keep]);
            at += 12 + 4 * len;
        }
        out
    }

    #[test]
    fn vantage_dimension_mismatch_fails_at_load() {
        let (_, index) = build_one(86);
        let path = tmp("vantage_dim");
        index.save(&path).expect("save to temp dir succeeds");
        let clean = std::fs::read(&path).expect("saved file is readable");
        // the skeleton's length (after header 28, metric and shape 17,
        // hnsw record 34, route 12), then the skeleton
        let at = 28 + 17 + 34 + 12;
        let skel_len = u64::from_le_bytes(clean[at..at + 8].try_into().expect("8 bytes")) as usize;
        let (skel, rest) = clean[at + 8..].split_at(skel_len);
        for (count, msg) in [(1, "vantage lengths"), (usize::MAX, "dimension 11 and 12")] {
            let edited = shorten_vantages(skel, count);
            let mut bytes = clean[..at].to_vec();
            bytes.extend_from_slice(&(edited.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&edited);
            bytes.extend_from_slice(rest);
            // whoever edits a file can rewrite its length and checksum too
            let payload_len = (bytes.len() - 28) as u64;
            bytes[12..20].copy_from_slice(&payload_len.to_le_bytes());
            let sum = fnv1a64(&bytes[28..]);
            bytes[20..28].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).expect("rewrite of edited bytes succeeds");
            let Err(PersistError::Format(m)) = DistIndex::load(&path) else {
                panic!("a vantage/partition dimension mismatch must fail as a format error")
            };
            assert!(m.contains(msg), "{m}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        // a single flipped bit — wherever it lands: magic, version, length,
        // checksum, or payload — must surface as a typed error, never as a
        // silently-wrong index and never as an `Ok`
        let (_, index) = build_one(88);
        let path = tmp("bitflip");
        index.save(&path).expect("save to temp dir succeeds");
        let clean = std::fs::read(&path).expect("saved file is readable");
        assert!(clean.len() > 28, "file has a header and a payload");

        // sweep the whole header plus payload offsets spread across the file
        let mut offsets: Vec<usize> = (0..28).collect();
        offsets.extend((28..clean.len()).step_by((clean.len() / 64).max(1)));
        offsets.push(clean.len() - 1);

        for off in offsets {
            let mut bytes = clean.clone();
            bytes[off] ^= 0x10;
            std::fs::write(&path, &bytes).expect("rewrite of corrupted bytes succeeds");
            let res = DistIndex::load(&path);
            let Err(err) = res else {
                panic!("bit flip at offset {off} must not load")
            };
            assert!(
                matches!(err, PersistError::Format(_) | PersistError::Checksum { .. }),
                "offset {off}: unexpected error class {err}"
            );
        }

        // flipping a payload byte specifically must be caught by the
        // checksum (the structural parser alone cannot see most of these)
        let mut bytes = clean.clone();
        let mid = 28 + (clean.len() - 28) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite of corrupted bytes succeeds");
        let Err(err) = DistIndex::load(&path) else {
            panic!("payload flip must fail")
        };
        assert!(
            matches!(err, PersistError::Checksum { expected, found } if expected != found),
            "payload flip must be a checksum error, got {err}"
        );

        // the pristine bytes still load (the sweep itself is not destructive)
        std::fs::write(&path, &clean).expect("restore clean bytes");
        let back = DistIndex::load(&path).expect("clean file loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.n_partitions(), index.n_partitions());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (_, index) = build_one(89);
        let path = tmp("trailing");
        index.save(&path).expect("save to temp dir succeeds");
        let mut bytes = std::fs::read(&path).expect("saved file is readable");
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).expect("rewrite succeeds");
        let res = DistIndex::load(&path);
        std::fs::remove_file(&path).ok();
        let Err(err) = res else {
            panic!("trailing bytes must not load")
        };
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn split_index_survives_save_load_and_further_mutation() {
        use crate::mutation::{Mutation, MutationRequest};
        let data = synth::sift_like(2_000, 12, 90);
        let hnsw = HnswConfig::with_m(8)
            .ef_construction(40)
            .seed(90)
            .entry_beam(1);
        let cfg = EngineConfig::new(4, 2).with_hnsw(hnsw).with_seed(90);
        let mut index = DistIndex::build(&data, cfg);
        MutationRequest::new(&mut index).split_above(300).run();
        assert_eq!(index.n_partitions(), 8, "four 500-row partitions split");

        let path = tmp("split");
        index.save(&path).expect("a split index saves");
        let mut back = DistIndex::load(&path).expect("and loads back");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.n_partitions(), 8);
        assert_eq!(
            back.config.hnsw, index.config.hnsw,
            "the HNSW config survives, so rebuilt partitions match"
        );
        let queries = synth::queries_near(&data, 15, 0.02, 91);
        let search = |ix: &DistIndex| {
            SearchRequest::new(ix, &queries)
                .opts(SearchOptions::new(10))
                .run()
        };
        assert_eq!(
            search(&index),
            search(&back),
            "loaded split index answers identically"
        );

        // the reloaded copy keeps mutating exactly like the original
        let fresh = synth::sift_like(400, 12, 92);
        let batch: Vec<Mutation> = (0..fresh.len())
            .map(|i| Mutation::Upsert {
                global_id: None,
                vector: fresh.get(i).to_vec(),
            })
            .collect();
        let a = MutationRequest::new(&mut index)
            .mutations(batch.clone())
            .split_above(150)
            .run();
        let b = MutationRequest::new(&mut back)
            .mutations(batch)
            .split_above(150)
            .run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.splits, b.splits);
        assert_eq!(a.compactions, b.compactions);
        assert_eq!(a.ndist, b.ndist);
        assert_eq!(index.n_partitions(), 16);
        assert_eq!(back.n_partitions(), 16);
        assert_eq!(
            search(&index),
            search(&back),
            "mutated copies answer identically"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let Err(err) = DistIndex::load("/nonexistent/fastann.idx") else {
            panic!("missing file must not load")
        };
        assert!(matches!(err, PersistError::Io(_)));
    }
}
