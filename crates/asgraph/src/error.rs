//! Error type of relationship-labelling construction.

use crate::asn::Asn;
use crate::link::Link;
use std::fmt;

/// Errors raised when a relationship label is added to a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The same link was inserted twice with conflicting relationships.
    ConflictingRelationship {
        /// The link in question.
        link: Link,
    },
    /// A P2C relationship named a provider that is not an endpoint of the link.
    ProviderNotOnLink {
        /// The link in question.
        link: Link,
        /// The offending provider ASN.
        provider: Asn,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ConflictingRelationship { link } => {
                write!(f, "conflicting relationship labels for link {link}")
            }
            GraphError::ProviderNotOnLink { link, provider } => {
                write!(f, "provider {provider} is not an endpoint of link {link}")
            }
        }
    }
}

impl std::error::Error for GraphError {}
