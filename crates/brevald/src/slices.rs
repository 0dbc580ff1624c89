//! The region×topology slice table: one compact row per inferred link,
//! persisted alongside the per-classifier snapshots so a warm-started
//! server can answer coverage/bias queries without re-running the pipeline.
//!
//! The paper's coverage figures (Figs. 1–2) aggregate links by regional
//! class (`AR°`, `AF-AP`, …) and topological class (`S-TR`, `TR°`, …) and
//! divide the validated count by the link count per class. A
//! [`SliceTable`] stores exactly the inputs of that division — link
//! endpoints, region pair code, topo pair code, validated flag — in the
//! [`asgraph::io`] flat typed-array codec, and a [`SliceIndex`] derived at
//! load time answers any slice (including wildcards) and any per-AS
//! coverage lookup without allocating.
//!
//! Region pair codes are `ra * 5 + rb` over the RIR order AF, AP, AR, L, R
//! with `ra <= rb` (the same normalisation as
//! [`breval_core::classes::RegionClass::of`]); code [`REGION_NONE`] marks
//! links with an unmapped endpoint, which the paper's regional figures
//! discard. Topo pair codes are [`LinkClassifier::topo_pair_id`] codes
//! verbatim.

use asgraph::io::{ByteReader, ByteWriter, IoError};
use asgraph::{AsIndexer, Asn, Link};
use asregistry::RirRegion;
use breval_core::classes::{LinkClassifier, RegionClass};
use breval_core::pipeline::Scenario;
use breval_core::snapshot::{SnapshotError, SnapshotKey};
use std::path::{Path, PathBuf};

/// Leading magic of a slice-table file.
pub const SLICE_MAGIC: [u8; 8] = *b"BREVSLIC";
/// On-disk schema version this build writes and accepts.
pub const SLICE_VERSION: u32 = 1;
/// Region pair code for links with an unmapped (reserved/unknown) endpoint.
pub const REGION_NONE: u8 = 25;
/// Pseudo-classifier name slice tables are keyed under on disk.
pub const SLICE_KEY_NAME: &str = "slices";

const REGION_CODES: usize = 26;
const TOPO_CODES: usize = 16;
/// The ten valid topo pair codes, ascending (see `topo_pair_label`).
const VALID_TOPO: [u8; 10] = [0, 1, 2, 3, 5, 6, 7, 10, 11, 15];

/// One inferred link and its slice classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRow {
    /// The link (normalised, `a < b`).
    pub link: Link,
    /// Region pair code (`ra * 5 + rb`, `ra <= rb`), or [`REGION_NONE`].
    pub region: u8,
    /// Topo pair code ([`LinkClassifier::topo_pair_id`]).
    pub topo: u8,
    /// Whether the cleaned validation set labels this link.
    pub validated: bool,
}

/// The position of `region` in the paper's AF, AP, AR, L, R order.
fn region_index(region: RirRegion) -> u8 {
    let mut idx = 0u8;
    for (i, r) in RirRegion::ALL.iter().enumerate() {
        if *r == region {
            idx = i as u8;
        }
    }
    idx
}

/// The region pair code of a classified link.
#[must_use]
pub fn region_code_of_class(class: Option<RegionClass>) -> u8 {
    match class {
        None => REGION_NONE,
        Some(RegionClass::Intra(r)) => region_index(r) * 5 + region_index(r),
        Some(RegionClass::Inter(a, b)) => {
            let (x, y) = (region_index(a), region_index(b));
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            lo * 5 + hi
        }
    }
}

/// The label of a region pair code (`AR°`, `AF-AP`, …), or `None` for
/// invalid codes. [`REGION_NONE`] renders as `none`.
#[must_use]
pub fn region_label_of(code: u8) -> Option<String> {
    if code == REGION_NONE {
        return Some("none".to_owned());
    }
    let (lo, hi) = (code / 5, code % 5);
    if lo > hi {
        return None;
    }
    let a = RirRegion::ALL.get(lo as usize)?;
    let b = RirRegion::ALL.get(hi as usize)?;
    Some(RegionClass::of(*a, *b).label())
}

/// Parses a region slice token (`AR°`, `AF-AP`, `none`) to its pair code.
#[must_use]
pub fn region_code_of(token: &str) -> Option<u8> {
    if token == "none" {
        return Some(REGION_NONE);
    }
    (0..REGION_NONE).find(|&code| region_label_of(code).as_deref() == Some(token))
}

/// The label of a topo pair code (`S-TR`, `TR°`, …), or `None` for codes
/// outside the valid ten. The non-panicking mirror of
/// [`LinkClassifier::topo_pair_label`].
#[must_use]
pub fn topo_label_of(code: u8) -> Option<&'static str> {
    if VALID_TOPO.contains(&code) {
        Some(LinkClassifier::topo_pair_label(code))
    } else {
        None
    }
}

/// Parses a topo slice token (`S-TR`, `TR°`, …) to its pair code.
#[must_use]
pub fn topo_code_of(token: &str) -> Option<u8> {
    VALID_TOPO
        .iter()
        .copied()
        .find(|c| LinkClassifier::topo_pair_label(*c) == token)
}

/// The persisted form: the key it was built under plus one row per
/// inferred link, in ascending link order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceTable {
    rows: Vec<SliceRow>,
}

impl SliceTable {
    /// An empty table.
    #[must_use]
    pub fn empty() -> Self {
        SliceTable { rows: Vec::new() }
    }

    /// Classifies every inferred link of a finished scenario. Rows come
    /// out in ascending link order (the `BTreeSet` iteration order), so
    /// cold-built and warm-loaded tables are byte-identical.
    #[must_use]
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let rows = scenario
            .inferred_links
            .iter()
            .map(|link| SliceRow {
                link: *link,
                region: region_code_of_class(scenario.classifier.region_class(*link)),
                topo: scenario.classifier.topo_pair_id(*link),
                validated: scenario.validation.labels.contains_key(link),
            })
            .collect();
        SliceTable { rows }
    }

    /// The rows, ascending by link.
    #[must_use]
    pub fn rows(&self) -> &[SliceRow] {
        &self.rows
    }

    /// The on-disk key slice tables are stored under for `config`:
    /// the scenario's config hash and seed with the pseudo-classifier
    /// name [`SLICE_KEY_NAME`].
    #[must_use]
    pub fn key(config: &breval_core::pipeline::ScenarioConfig) -> SnapshotKey {
        SnapshotKey::of(config, SLICE_KEY_NAME)
    }

    /// Serializes the table under `key`.
    #[must_use]
    pub fn to_bytes(&self, key: &SnapshotKey) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&SLICE_MAGIC);
        w.put_u32(SLICE_VERSION);
        w.put_u64(key.config_hash);
        w.put_u64(key.seed);
        let mut flat: Vec<u32> = Vec::with_capacity(self.rows.len() * 3);
        for row in &self.rows {
            let meta = (u32::from(row.region) << 16)
                | (u32::from(row.topo) << 8)
                | u32::from(row.validated);
            flat.extend_from_slice(&[row.link.a().0, row.link.b().0, meta]);
        }
        w.put_u32_slice(&flat);
        w.into_bytes()
    }

    /// Decodes a slice-table stream, re-validating every row. Any failure
    /// is an `Err`, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<(SnapshotKey, Self), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        r.expect_bytes(&SLICE_MAGIC)?;
        let version = r.take_u32()?;
        if version != SLICE_VERSION {
            return Err(IoError::BadVersion { found: version }.into());
        }
        let config_hash = r.take_u64()?;
        let seed = r.take_u64()?;
        let at = r.offset();
        let flat = r.take_u32_slice()?;
        r.finish()?;
        let invalid = |what| SnapshotError::Codec(IoError::Invalid { offset: at, what });
        if flat.len() % 3 != 0 {
            return Err(invalid("slice row array length is not a multiple of 3"));
        }
        let mut rows = Vec::with_capacity(flat.len() / 3);
        let mut prev: Option<Link> = None;
        for chunk in flat.chunks_exact(3) {
            let &[a, b, meta] = chunk else {
                continue; // chunks_exact(3) yields exactly three elements
            };
            let link = Link::new(Asn(a), Asn(b))
                .filter(|l| l.a().0 == a)
                .ok_or_else(|| invalid("slice row endpoints are not a normalised pair"))?;
            if prev.is_some_and(|p| p >= link) {
                return Err(invalid("slice rows are not in ascending link order"));
            }
            prev = Some(link);
            let region = (meta >> 16) as u8;
            let topo = ((meta >> 8) & 0xff) as u8;
            let validated = meta & 0xff;
            if meta > 0x00ff_ffff || validated > 1 {
                return Err(invalid("slice row meta word has reserved bits set"));
            }
            if region > REGION_NONE || (region < REGION_NONE && region / 5 > region % 5) {
                return Err(invalid("slice row region code is invalid"));
            }
            if !VALID_TOPO.contains(&topo) {
                return Err(invalid("slice row topo code is invalid"));
            }
            rows.push(SliceRow {
                link,
                region,
                topo,
                validated: validated == 1,
            });
        }
        Ok((
            SnapshotKey {
                config_hash,
                seed,
                name: SLICE_KEY_NAME.to_owned(),
            },
            SliceTable { rows },
        ))
    }

    /// Writes the table to `dir/<key.file_name()>`, creating `dir` if
    /// needed. Returns the path written.
    pub fn save(&self, dir: &Path, key: &SnapshotKey) -> Result<PathBuf, SnapshotError> {
        let _span = breval_obs::span!("snapshot_save");
        let bytes = self.to_bytes(key);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(key.file_name());
        std::fs::write(&path, &bytes)?;
        breval_obs::counter("snapshot_bytes_written", bytes.len() as u64);
        Ok(path)
    }

    /// Loads the table stored for `key` under `dir`, verifying the file's
    /// embedded key. A key mismatch is a distinguishable error and bumps
    /// the `snapshot_key_mismatch` counter, exactly like snapshot loads.
    pub fn load(dir: &Path, key: &SnapshotKey) -> Result<Self, SnapshotError> {
        let _span = breval_obs::span!("snapshot_load");
        let bytes = std::fs::read(dir.join(key.file_name()))?;
        let (found, table) = SliceTable::from_bytes(&bytes)?;
        if &found != key {
            breval_obs::counter("snapshot_key_mismatch", 1);
            return Err(SnapshotError::KeyMismatch {
                expected: key.clone(),
                found,
            });
        }
        Ok(table)
    }
}

/// Query-ready aggregates derived from a [`SliceTable`]: per-cell link and
/// validated counts over region code × topo code, plus per-AS incident
/// link/validated counts. Built once per generation; every lookup after
/// that is allocation-free.
#[derive(Debug, Clone)]
pub struct SliceIndex {
    links: [[u64; TOPO_CODES]; REGION_CODES],
    validated: [[u64; TOPO_CODES]; REGION_CODES],
    total_links: u64,
    total_validated: u64,
    per_as: AsIndexer,
    as_links: Vec<u32>,
    as_validated: Vec<u32>,
}

impl SliceIndex {
    /// Aggregates `table` into cell and per-AS counts.
    #[must_use]
    pub fn build(table: &SliceTable) -> Self {
        let mut links = [[0u64; TOPO_CODES]; REGION_CODES];
        let mut validated = [[0u64; TOPO_CODES]; REGION_CODES];
        let mut endpoints: Vec<Asn> = Vec::with_capacity(table.rows.len() * 2);
        for row in &table.rows {
            endpoints.push(row.link.a());
            endpoints.push(row.link.b());
        }
        let per_as = AsIndexer::from_unsorted(endpoints);
        let mut as_links = vec![0u32; per_as.len()];
        let mut as_validated = vec![0u32; per_as.len()];
        let mut total_links = 0u64;
        let mut total_validated = 0u64;
        for row in &table.rows {
            let (r, t) = (row.region as usize, row.topo as usize);
            if r < REGION_CODES && t < TOPO_CODES {
                links[r][t] += 1;
                if row.validated {
                    validated[r][t] += 1;
                }
            }
            total_links += 1;
            total_validated += u64::from(row.validated);
            for asn in [row.link.a(), row.link.b()] {
                if let Some(id) = per_as.id(asn) {
                    as_links[id as usize] += 1;
                    as_validated[id as usize] += u64::from(row.validated) as u32;
                }
            }
        }
        SliceIndex {
            links,
            validated,
            total_links,
            total_validated,
            per_as,
            as_links,
            as_validated,
        }
    }

    /// Link and validated counts for a region×topology slice; `None` on
    /// either axis is a wildcard. Allocation-free (fixed-cell scan).
    #[must_use]
    pub fn slice_counts(&self, region: Option<u8>, topo: Option<u8>) -> (u64, u64) {
        let mut links = 0u64;
        let mut validated = 0u64;
        let mut r = 0usize;
        while r < REGION_CODES {
            let mut t = 0usize;
            while t < TOPO_CODES {
                let take = region.is_none_or(|want| want as usize == r)
                    && topo.is_none_or(|want| want as usize == t);
                if take {
                    links += self.links[r][t];
                    validated += self.validated[r][t];
                }
                t += 1;
            }
            r += 1;
        }
        (links, validated)
    }

    /// Incident link and validated counts for one AS (0, 0 if the AS is on
    /// no inferred link). Allocation-free (binary search + two reads).
    #[must_use]
    pub fn as_counts(&self, asn: Asn) -> (u32, u32) {
        match self.per_as.id(asn) {
            Some(id) => (self.as_links[id as usize], self.as_validated[id as usize]),
            None => (0, 0),
        }
    }

    /// Total inferred links in the table.
    #[must_use]
    pub fn total_links(&self) -> u64 {
        self.total_links
    }

    /// Total validated links in the table.
    #[must_use]
    pub fn total_validated(&self) -> u64 {
        self.total_validated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(a: u32, b: u32) -> Link {
        Link::new(Asn(a), Asn(b)).expect("distinct test endpoints")
    }

    fn sample() -> SliceTable {
        SliceTable {
            rows: vec![
                SliceRow {
                    link: l(1, 2),
                    region: 12, // AR°
                    topo: 7,    // S-TR
                    validated: true,
                },
                SliceRow {
                    link: l(1, 3),
                    region: 12,
                    topo: 15, // TR°
                    validated: false,
                },
                SliceRow {
                    link: l(2, 3),
                    region: REGION_NONE,
                    topo: 15,
                    validated: true,
                },
            ],
        }
    }

    /// A few hundred rows cycling every valid region and topo code, so
    /// byte flips land in every field of many rows.
    fn wide() -> SliceTable {
        let regions: Vec<u8> = (0..=REGION_NONE)
            .filter(|c| *c == REGION_NONE || c / 5 <= c % 5)
            .collect();
        let rows = (0..300u32)
            .zip(regions.iter().cycle().zip(VALID_TOPO.iter().cycle()))
            .map(|(i, (&region, &topo))| SliceRow {
                link: l(1 + i / 4, 70_000 + i),
                region,
                topo,
                validated: i % 3 == 0,
            })
            .collect();
        SliceTable { rows }
    }

    fn key() -> SnapshotKey {
        SnapshotKey {
            config_hash: 0x1234,
            seed: 9,
            name: SLICE_KEY_NAME.to_owned(),
        }
    }

    #[test]
    fn region_codes_round_trip_through_labels() {
        for code in 0..REGION_NONE {
            if code / 5 > code % 5 {
                continue; // non-normalised pair, never emitted
            }
            let label = region_label_of(code).expect("valid code has a label");
            assert_eq!(region_code_of(&label), Some(code), "label {label}");
        }
        assert_eq!(region_code_of("none"), Some(REGION_NONE));
        assert_eq!(region_code_of("XX"), None);
    }

    #[test]
    fn topo_codes_round_trip_through_labels() {
        for code in VALID_TOPO {
            let label = topo_label_of(code).expect("valid code has a label");
            assert_eq!(topo_code_of(label), Some(code), "label {label}");
        }
        assert_eq!(topo_label_of(4), None);
        assert_eq!(topo_code_of("bogus"), None);
    }

    #[test]
    fn slice_table_round_trips() {
        let table = sample();
        let bytes = table.to_bytes(&key());
        let (found, loaded) = SliceTable::from_bytes(&bytes).expect("round trip");
        assert_eq!(found, key());
        assert_eq!(loaded, table);
        assert_eq!(loaded.to_bytes(&key()), bytes);
    }

    #[test]
    fn corrupt_slice_tables_error_not_panic() {
        let bytes = sample().to_bytes(&key());
        for cut in 0..bytes.len() {
            assert!(SliceTable::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(SliceTable::from_bytes(&bad).is_err());
        // An out-of-range topo code in the first row is rejected.
        let mut bad = bytes.clone();
        let meta_at = bytes.len() - 4; // last row's meta word
        bad[meta_at + 1] = 4; // topo = 4: not a valid pair code
        assert!(SliceTable::from_bytes(&bad).is_err());
        // Every single-byte flip is rejected, or decodes to a table that
        // re-encodes to exactly the flipped bytes.
        for table in [sample(), wide()] {
            let bytes = table.to_bytes(&key());
            let (mut rejected, mut decoded) = (0usize, 0usize);
            for at in 0..bytes.len() {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= mask;
                    match SliceTable::from_bytes(&flipped) {
                        Err(_) => rejected += 1,
                        Ok((found, decoded_table)) => {
                            assert_eq!(
                                decoded_table.to_bytes(&found),
                                flipped,
                                "flip {mask:#04x} at byte {at} does not re-encode"
                            );
                            decoded += 1;
                        }
                    }
                }
            }
            assert!(
                rejected > 0 && decoded > 0,
                "{rejected} rejected, {decoded} decoded"
            );
        }
    }

    #[test]
    fn index_answers_slices_and_per_as() {
        let idx = SliceIndex::build(&sample());
        assert_eq!(idx.slice_counts(None, None), (3, 2));
        assert_eq!(idx.slice_counts(Some(12), None), (2, 1));
        assert_eq!(idx.slice_counts(None, Some(15)), (2, 1));
        assert_eq!(idx.slice_counts(Some(12), Some(7)), (1, 1));
        assert_eq!(idx.slice_counts(Some(0), Some(7)), (0, 0));
        assert_eq!(idx.as_counts(Asn(1)), (2, 1));
        assert_eq!(idx.as_counts(Asn(3)), (2, 1));
        assert_eq!(idx.as_counts(Asn(99)), (0, 0));
    }
}
