//! Archival units, replicas, and the storage-damage (bit rot) process.
//!
//! The paper preserves *archival units* (AUs — a year's run of a journal,
//! 0.5 GB each in the experiments) replicated at every peer. Replicas decay:
//! "our simulated peers suffer random storage damage at rates of one block
//! in 1 to 5 disk years (50 AUs per disk)" (§7.1), deliberately inflated to
//! encompass tampering and human error. Damage is only discovered and
//! repaired through the audit protocol — that is the entire point of the
//! system.
//!
//! Replicas are represented as sparse *damage sets* over block indices: two
//! replicas agree on a block iff neither has damaged it (damage produces
//! garbage, and two garbage blocks never collide).

pub mod au;
pub mod damage;

pub use au::{AuId, AuSpec, Replica};
pub use damage::DamageProcess;
