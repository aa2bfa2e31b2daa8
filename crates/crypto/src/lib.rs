//! SHA-256 for the LOCKSS attrition reproduction.
//!
//! [`mod@sha256`] is FIPS 180-4 SHA-256, implemented from scratch (the
//! offline dependency policy bans third-party crypto crates). It seals
//! recorded traces and fingerprints the golden scenario pins. The
//! simulator itself never hashes: it charges *time* for hashing and effort
//! proofs, exactly as the paper's Narses runs did.

pub mod sha256;

pub use sha256::{sha256, Sha256};
