//! ASN → service-region mapping (the §5 methodology).
//!
//! IANA's initial block assignments bootstrap the mapping for every ASN; the
//! per-RIR extended delegation files then *refine* it, capturing resources
//! transferred between regions after the initial assignment (Prehn et al.,
//! CoNEXT 2020 observed such transfers become common after 2015).

use crate::delegation::{DelegationFile, DelegationStatus};
use crate::iana::IanaAsnTable;
use crate::region::RirRegion;
use asgraph::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The combined ASN → region map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegionMap {
    iana: IanaAsnTable,
    /// Refinements from delegation files (these win over the IANA bootstrap).
    delegated: BTreeMap<Asn, RirRegion>,
}

impl RegionMap {
    /// Bootstrap from an IANA table only.
    #[must_use]
    pub fn from_iana(iana: IanaAsnTable) -> Self {
        RegionMap {
            iana,
            delegated: BTreeMap::new(),
        }
    }

    /// Refines the map with one delegation file. `available`/`reserved`
    /// records do not represent a holder in the region and are skipped.
    pub fn apply_delegations(&mut self, file: &DelegationFile) {
        for record in &file.records {
            match record.status {
                DelegationStatus::Allocated | DelegationStatus::Assigned => {
                    for asn in record.asns() {
                        self.delegated.insert(asn, file.registry);
                    }
                }
                DelegationStatus::Available | DelegationStatus::Reserved => {}
            }
        }
    }

    /// Bootstrap + refine in one call.
    #[must_use]
    pub fn build(iana: IanaAsnTable, files: &[DelegationFile]) -> Self {
        let mut map = RegionMap::from_iana(iana);
        for f in files {
            map.apply_delegations(f);
        }
        map
    }

    /// The service region of `asn`: delegation refinement first, IANA
    /// bootstrap second. Reserved ASNs map to `None`.
    #[must_use]
    pub fn region(&self, asn: Asn) -> Option<RirRegion> {
        if asn.is_reserved() {
            return None;
        }
        self.delegated
            .get(&asn)
            .copied()
            .or_else(|| self.iana.initial_region(asn))
    }

    /// Number of delegation-refined entries.
    #[must_use]
    pub fn refined_count(&self) -> usize {
        self.delegated.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegation::DelegationRecord;
    use crate::iana::BlockAuthority;

    fn iana() -> IanaAsnTable {
        let mut t = IanaAsnTable::new();
        t.push_block(1, 1000, BlockAuthority::Rir(RirRegion::Arin))
            .unwrap();
        t.push_block(1001, 2000, BlockAuthority::Rir(RirRegion::RipeNcc))
            .unwrap();
        t
    }

    fn delegation(
        registry: RirRegion,
        start: u32,
        count: u32,
        status: DelegationStatus,
    ) -> DelegationFile {
        let mut f = DelegationFile::new(registry, "20180405");
        f.records.push(DelegationRecord {
            cc: registry.country_codes()[0].to_owned(),
            start: Asn(start),
            count,
            date: "20170101".into(),
            status,
            opaque_id: "h1".into(),
        });
        f
    }

    #[test]
    fn bootstrap_then_refine() {
        // AS500 starts in ARIN, is transferred to LACNIC.
        let files = vec![delegation(
            RirRegion::Lacnic,
            500,
            1,
            DelegationStatus::Allocated,
        )];
        let map = RegionMap::build(iana(), &files);
        assert_eq!(map.region(Asn(499)), Some(RirRegion::Arin));
        assert_eq!(map.region(Asn(500)), Some(RirRegion::Lacnic));
        assert_eq!(map.region(Asn(1500)), Some(RirRegion::RipeNcc));
        assert_eq!(map.refined_count(), 1);
    }

    #[test]
    fn available_records_do_not_refine() {
        let files = vec![delegation(
            RirRegion::Lacnic,
            500,
            1,
            DelegationStatus::Available,
        )];
        let map = RegionMap::build(iana(), &files);
        assert_eq!(map.region(Asn(500)), Some(RirRegion::Arin));
        assert_eq!(map.refined_count(), 0);
    }

    #[test]
    fn reserved_asns_have_no_region() {
        let map = RegionMap::from_iana(iana());
        assert_eq!(map.region(Asn(23456)), None);
        assert_eq!(map.region(Asn(64512)), None);
    }

    #[test]
    fn unassigned_asn_has_no_region() {
        let map = RegionMap::from_iana(iana());
        assert_eq!(map.region(Asn(999_999)), None);
    }

    #[test]
    fn multi_asn_record_refines_all() {
        let files = vec![delegation(
            RirRegion::Apnic,
            100,
            5,
            DelegationStatus::Assigned,
        )];
        let map = RegionMap::build(iana(), &files);
        for asn in 100..105 {
            assert_eq!(map.region(Asn(asn)), Some(RirRegion::Apnic));
        }
        assert_eq!(map.region(Asn(105)), Some(RirRegion::Arin));
    }
}
