//! # asregistry — Internet number-registry substrate
//!
//! The paper's §5 maps every ASN to a geographic *service region* in two steps:
//!
//! 1. bootstrap from IANA's list of initial 16-/32-bit ASN block assignments,
//! 2. refine with the daily *extended delegation files* published by the five
//!    RIRs, which capture post-assignment inter-RIR transfers.
//!
//! This crate implements both data sources byte-format-faithfully (the real
//! pipe-separated extended delegation format, including header/summary lines),
//! plus the CAIDA-style AS-to-Organisation dataset used in §4.2 to identify
//! sibling relationships.

#![warn(missing_docs)]

pub mod delegation;
pub mod error;
pub mod iana;
pub mod org;
pub mod region;
pub mod regionmap;

pub use delegation::{DelegationFile, DelegationRecord, DelegationStatus};
pub use error::RegistryError;
pub use iana::{BlockAuthority, IanaAsnTable};
pub use org::{As2Org, OrgId};
pub use region::RirRegion;
pub use regionmap::RegionMap;
