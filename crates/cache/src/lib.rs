//! Cache hierarchy simulator with support for operation below Vcc-min.
//!
//! This crate provides the memory-system substrate of the ISPASS 2010 reproduction:
//!
//! * [`SetAssocCache`] — a set-associative cache with true-LRU replacement whose
//!   per-set usable ways can be restricted by a repair scheme's disable mask;
//! * [`VictimCache`] — a small fully-associative victim buffer (Jouppi-style) that
//!   captures blocks evicted from an L1 and serves them back on a miss;
//! * [`RepairScheme`] — the trait every cache repair organization implements:
//!   structure (geometry transform + [`WayDisableMask`]), latency overhead per
//!   voltage, per-fault-map capacity and the closed-form expected capacity. The
//!   [`repair::registry`] lists the five shipped schemes: baseline,
//!   block-disabling, word-disabling, bit-fix and way-sacrifice;
//! * [`DisablingScheme`] — the `Copy` identifier configurations embed;
//!   [`DisablingScheme::repair`] resolves an identifier to its trait
//!   implementation;
//! * [`CacheHierarchy`] — L1 instruction + data caches (optionally with victim
//!   caches), a unified L2 and a flat memory latency, returning per-access latencies
//!   that the CPU model consumes;
//! * [`CacheStats`] — hit/miss accounting at every level.
//!
//! # Example
//!
//! ```
//! use vccmin_cache::{CacheHierarchy, HierarchyConfig};
//!
//! let mut hier = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
//! let first = hier.access_data(0x1000, false);
//! let second = hier.access_data(0x1000, false);
//! assert!(second.latency < first.latency, "the second access hits in the L1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Shared strict lint table — kept byte-identical in every workspace crate and
// applied per-crate (not via `[workspace.lints]`, which the vendored toolchain
// setup does not rely on). simlint's D-rules cover the determinism side; this
// table covers the general-correctness side.
#![deny(
    clippy::dbg_macro,
    clippy::exit,
    clippy::mem_forget,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(
    clippy::explicit_iter_loop,
    clippy::manual_let_else,
    clippy::map_unwrap_or,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned
)]

pub mod disabling;
pub mod hierarchy;
pub mod repair;
pub mod set_assoc;
pub mod stats;
pub mod victim;

pub use disabling::{
    DisableError, DisablingScheme, EffectiveL1, L1Config, VictimCacheConfig, VoltageMode,
};
pub use hierarchy::{AccessResult, CacheHierarchy, HierarchyConfig, HitLevel};
pub use repair::{RepairScheme, ResolvedOrganization, WayDisableMask};
pub use set_assoc::{AccessOutcome, SetAssocCache};
pub use stats::{CacheStats, HierarchyStats};
pub use vccmin_fault::{CacheGeometry, CellTechnology, FaultMap};
pub use victim::VictimCache;
