//! Per-classifier scenario snapshots: one immutable, `Arc`-shared bundle of
//! every dense structure the analysis layer reads — the CSR mirror of the
//! inferred graph, its customer-cone sizes, the PPDC cones, and the
//! scored-link join against the cleaned validation labels.
//!
//! `Scenario::run` builds every classifier's [`ScenarioSnapshot`] whole,
//! once, at its end; the coverage, heatmap, table and link-feature paths
//! and `brevald` read the same `Arc`s.
//!
//! Snapshots also persist. The on-disk form is the flat typed-array codec of
//! [`asgraph::io`]:
//!
//! ```text
//! "BREVSNAP"  magic                 8 bytes
//! version     u32                   schema version (currently 2)
//! config_hash u64                   FNV-1a over the scenario config JSON
//! seed        u64                   topology seed (redundant, human-facing)
//! name        str                   classifier name ("asrank", …)
//! csr         CsrGraph              indexer + 4 × (offsets, targets)
//! cones       ConeSizes             indexer + u64 sizes
//! ppdc        PpdcCones             indexer + hybrid rows (sparse id lists + dense bitsets)
//! scored      u32[6k]               k × (a, b, val_tag, val_prov, inf_tag, inf_prov)
//! ```
//!
//! Every slice is `u64`-length-prefixed little-endian; loads re-validate all
//! lengths and structural invariants and return [`SnapshotError`] — never a
//! panic, never an attacker-sized allocation. A warm load is a handful of
//! bulk reads, so re-analysing a built scenario costs milliseconds instead
//! of re-running topogen + bgpsim + inference (592× faster than the cold
//! build at small scale).

use crate::metrics::{confusion, ScoredLink};
use crate::pipeline::ScenarioConfig;
use asgraph::io::{ByteReader, ByteWriter, IoError};
use asgraph::{Asn, ConeSizes, CsrGraph, Link, PpdcCones, Rel, RelClass};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"BREVSNAP";
/// On-disk schema version this build writes and accepts. Version 2 switched
/// the PPDC section to the hybrid sparse/dense row layout; version-1 files
/// (flat bitset rows only) are rejected and must be rebuilt from scratch —
/// a cold rebuild, never a silent misparse.
pub const VERSION: u32 = 2;

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The byte stream failed to decode (truncation, bad magic, corrupt
    /// lengths, broken invariants).
    Codec(IoError),
    /// The filesystem said no.
    File(std::io::Error),
    /// The file decoded fine but was built from a different scenario
    /// config, seed, or classifier than the caller asked for.
    KeyMismatch {
        /// The key the caller expected.
        expected: SnapshotKey,
        /// What the file actually holds.
        found: SnapshotKey,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot codec error: {e}"),
            SnapshotError::File(e) => write!(f, "snapshot file error: {e}"),
            SnapshotError::KeyMismatch { expected, found } => write!(
                f,
                "snapshot key mismatch: expected {expected}, file holds {found}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<IoError> for SnapshotError {
    fn from(e: IoError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::File(e)
    }
}

/// What identifies a persisted snapshot: the scenario config (hashed), the
/// topology seed, and the classifier name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotKey {
    /// FNV-1a 64 over the scenario config's JSON serialization.
    pub config_hash: u64,
    /// The topology seed (also inside the hash; kept visible for humans).
    pub seed: u64,
    /// The classifier name (`"asrank"`, `"problink"`, …).
    pub name: String,
}

impl fmt::Display for SnapshotKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/s{}/{}", self.config_hash, self.seed, self.name)
    }
}

impl SnapshotKey {
    /// The key for `config`'s scenario under classifier `name`.
    #[must_use]
    pub fn of(config: &ScenarioConfig, name: &str) -> Self {
        let json = serde_json::to_string(config).unwrap_or_default();
        SnapshotKey {
            config_hash: fnv1a64(json.as_bytes()),
            seed: config.topology.seed,
            name: name.to_owned(),
        }
    }

    /// The file name a snapshot with this key is stored under.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "snap_{:016x}_s{}_{}.bin",
            self.config_hash, self.seed, self.name
        )
    }
}

/// FNV-1a 64-bit over `bytes` — stable across runs and platforms, unlike
/// `DefaultHasher`, so snapshot file names are reproducible.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The immutable per-classifier analysis bundle (see the module docs).
#[derive(Debug, Default)]
pub struct ScenarioSnapshot {
    /// The classifier this snapshot belongs to (`"asrank"`, …).
    pub name: String,
    /// CSR mirror of the inferred relationship graph.
    pub csr: Arc<CsrGraph>,
    /// Customer-cone sizes over the inferred graph.
    pub cones: Arc<ConeSizes>,
    /// PPDC cones: the observed paths under the inferred relationships.
    pub ppdc: Arc<PpdcCones>,
    /// Validation ⋈ inference join, ascending by link.
    pub scored: Arc<Vec<ScoredLink>>,
}

impl ScenarioSnapshot {
    /// Serializes the snapshot under `key`.
    #[must_use]
    pub fn to_bytes(&self, key: &SnapshotKey) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        w.put_u64(key.config_hash);
        w.put_u64(key.seed);
        w.put_str(&self.name);
        asgraph::io::write_csr_graph(&mut w, &self.csr);
        asgraph::io::write_cone_sizes(&mut w, &self.cones);
        asgraph::io::write_ppdc_cones(&mut w, &self.ppdc);
        write_scored(&mut w, &self.scored);
        w.into_bytes()
    }

    /// Decodes a snapshot stream, returning the key it was written under
    /// and the snapshot. All structural invariants are re-validated; any
    /// failure is an `Err`, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<(SnapshotKey, Self), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        r.expect_bytes(&MAGIC)?;
        let version = r.take_u32()?;
        if version != VERSION {
            return Err(IoError::BadVersion { found: version }.into());
        }
        let config_hash = r.take_u64()?;
        let seed = r.take_u64()?;
        let name = r.take_str()?;
        let csr = asgraph::io::read_csr_graph(&mut r)?;
        let cones = asgraph::io::read_cone_sizes(&mut r)?;
        let ppdc = asgraph::io::read_ppdc_cones(&mut r)?;
        let scored = read_scored(&mut r)?;
        r.finish()?;
        let key = SnapshotKey {
            config_hash,
            seed,
            name: name.clone(),
        };
        let snap = ScenarioSnapshot {
            name,
            csr: Arc::new(csr),
            cones: Arc::new(cones),
            ppdc: Arc::new(ppdc),
            scored: Arc::new(scored),
        };
        Ok((key, snap))
    }

    /// Writes the snapshot to `dir/<key.file_name()>`, creating `dir` if
    /// needed. Returns the path written. Emits the `snapshot_save` span and
    /// the `snapshot_bytes_written` counter.
    pub fn save(&self, dir: &Path, key: &SnapshotKey) -> Result<PathBuf, SnapshotError> {
        let _span = breval_obs::span!("snapshot_save");
        let bytes = self.to_bytes(key);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(key.file_name());
        std::fs::write(&path, &bytes)?;
        breval_obs::counter("snapshot_bytes_written", bytes.len() as u64);
        Ok(path)
    }

    /// Loads the snapshot stored for `key` under `dir`, verifying the file's
    /// embedded key matches. Emits the `snapshot_load` span; a key mismatch
    /// additionally bumps the `snapshot_key_mismatch` counter so reload
    /// loops (brevald) can alert on it instead of silently retrying.
    pub fn load(dir: &Path, key: &SnapshotKey) -> Result<Self, SnapshotError> {
        let _span = breval_obs::span!("snapshot_load");
        let bytes = std::fs::read(dir.join(key.file_name()))?;
        let (found, snap) = ScenarioSnapshot::from_bytes(&bytes)?;
        if &found != key {
            breval_obs::counter("snapshot_key_mismatch", 1);
            return Err(SnapshotError::KeyMismatch {
                expected: key.clone(),
                found,
            });
        }
        Ok(snap)
    }

    /// A deterministic text summary of everything the snapshot holds —
    /// node/link counts, cone totals, PPDC shape, and per-relationship-class
    /// confusion counts from the scored join. Cold-built and warm-loaded
    /// snapshots of the same scenario must render byte-identically; CI diffs
    /// exactly that.
    #[must_use]
    pub fn summary_csv(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, key: &str, value: u64| {
            out.push_str(&format!("{},{},{}\n", self.name, key, value));
        };
        push(&mut out, "nodes", self.csr.node_count() as u64);
        let cone_total: u64 = self.cones.iter().map(|(_, s)| s as u64).sum();
        push(&mut out, "cone_size_total", cone_total);
        let ppdc_total: u64 = self.ppdc.sizes().iter().map(|(_, s)| s as u64).sum();
        push(&mut out, "ppdc_ases", self.ppdc.indexer().len() as u64);
        push(&mut out, "ppdc_size_total", ppdc_total);
        push(&mut out, "scored_links", self.scored.len() as u64);
        for class in [RelClass::P2c, RelClass::P2p, RelClass::S2s] {
            let m = confusion(&self.scored, class);
            push(&mut out, &format!("{class}_tp"), m.tp as u64);
            push(&mut out, &format!("{class}_fp"), m.fp as u64);
            push(&mut out, &format!("{class}_fn"), m.fn_ as u64);
            push(&mut out, &format!("{class}_tn"), m.tn as u64);
        }
        out
    }
}

/// Relationship wire tags: 0 = p2p, 1 = s2s, 2 = p2c.
fn rel_tag(rel: Rel) -> (u32, u32) {
    match rel {
        Rel::P2p => (0, 0),
        Rel::S2s => (1, 0),
        Rel::P2c { provider } => (2, provider.0),
    }
}

fn write_scored(w: &mut ByteWriter, scored: &[ScoredLink]) {
    let mut flat: Vec<u32> = Vec::with_capacity(scored.len() * 6);
    for s in scored {
        let (vt, vp) = rel_tag(s.validation);
        let (it, ip) = rel_tag(s.inferred);
        flat.extend_from_slice(&[s.link.a().0, s.link.b().0, vt, vp, it, ip]);
    }
    w.put_u32_slice(&flat);
}

fn read_scored(r: &mut ByteReader) -> Result<Vec<ScoredLink>, SnapshotError> {
    let at = r.offset();
    let flat = r.take_u32_slice()?;
    let invalid = |what| SnapshotError::Codec(IoError::Invalid { offset: at, what });
    if flat.len() % 6 != 0 {
        return Err(invalid("scored link array length is not a multiple of 6"));
    }
    let mut scored = Vec::with_capacity(flat.len() / 6);
    for chunk in flat.chunks_exact(6) {
        let &[a, b, val_tag, val_prov, inf_tag, inf_prov] = chunk else {
            continue; // chunks_exact(6) yields exactly six elements
        };
        let link = Link::new(Asn(a), Asn(b))
            .filter(|l| l.a().0 == a)
            .ok_or_else(|| invalid("scored link endpoints are not a normalised pair"))?;
        let decode = |tag: u32, provider: u32| -> Result<Rel, SnapshotError> {
            let rel = match tag {
                0 => Rel::P2p,
                1 => Rel::S2s,
                2 => Rel::P2c {
                    provider: Asn(provider),
                },
                _ => return Err(invalid("unknown relationship tag")),
            };
            if rel.is_valid_for(link) {
                Ok(rel)
            } else {
                Err(invalid("p2c provider is not an endpoint of its link"))
            }
        };
        scored.push(ScoredLink {
            link,
            validation: decode(val_tag, val_prov)?,
            inferred: decode(inf_tag, inf_prov)?,
        });
    }
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_snapshot() -> ScenarioSnapshot {
        let l = |a: u32, b: u32| Link::new(Asn(a), Asn(b)).unwrap();
        let rels = BTreeMap::from([
            (l(1, 2), Rel::P2c { provider: Asn(1) }),
            (l(2, 3), Rel::P2c { provider: Asn(2) }),
            (l(2, 5), Rel::P2p),
        ]);
        let csr = CsrGraph::build(&rels);
        ScenarioSnapshot {
            name: "asrank".into(),
            cones: Arc::new(asgraph::cone::customer_cone_sizes_csr(&csr)),
            csr: Arc::new(csr),
            ppdc: Arc::new(PpdcCones::default()),
            scored: Arc::new(vec![ScoredLink {
                link: l(1, 2),
                validation: Rel::P2c { provider: Asn(1) },
                inferred: Rel::P2p,
            }]),
        }
    }

    fn key() -> SnapshotKey {
        SnapshotKey {
            config_hash: 0xabcd,
            seed: 7,
            name: "asrank".into(),
        }
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes(&key());
        let (found, loaded) = ScenarioSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(found, key());
        assert_eq!(loaded.name, "asrank");
        assert_eq!(loaded.cones.get(Asn(1)), Some(3));
        assert_eq!(loaded.scored.len(), 1);
        // Re-encoding the loaded snapshot is byte-identical.
        assert_eq!(loaded.to_bytes(&key()), bytes);
        assert_eq!(loaded.summary_csv(), snap.summary_csv());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes(&key());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ScenarioSnapshot::from_bytes(&bad),
            Err(SnapshotError::Codec(IoError::BadMagic))
        ));
        // Wrong version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            ScenarioSnapshot::from_bytes(&bad),
            Err(SnapshotError::Codec(IoError::BadVersion { found: 99 }))
        ));
        // A pre-hybrid version-1 file is rejected up front — its PPDC bytes
        // would misparse under the v2 layout, so the version gate must fire
        // before any section is read.
        let mut v1 = bytes.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            ScenarioSnapshot::from_bytes(&v1),
            Err(SnapshotError::Codec(IoError::BadVersion { found: 1 }))
        ));
        // Truncations at every length never panic.
        for cut in 0..bytes.len() {
            assert!(ScenarioSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            ScenarioSnapshot::from_bytes(&bad),
            Err(SnapshotError::Codec(IoError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn save_load_respects_key() {
        let dir = std::env::temp_dir().join("breval_snap_test");
        let snap = sample_snapshot();
        let key = key();
        let path = snap.save(&dir, &key).unwrap();
        assert!(path.ends_with(key.file_name()));
        let loaded = ScenarioSnapshot::load(&dir, &key).unwrap();
        assert_eq!(loaded.summary_csv(), snap.summary_csv());
        // A different expected key is refused even though the file decodes.
        let other = SnapshotKey {
            seed: 8,
            ..key.clone()
        };
        std::fs::copy(dir.join(key.file_name()), dir.join(other.file_name())).unwrap();
        assert!(matches!(
            ScenarioSnapshot::load(&dir, &other),
            Err(SnapshotError::KeyMismatch { .. })
        ));
    }
}
