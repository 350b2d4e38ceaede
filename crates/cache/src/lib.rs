//! Cache substrate for the Sharing Architecture.
//!
//! The paper's memory system (§3.5) gives every Slice a private L1 I-cache
//! and L1 D-cache, backed by a configurable L2 built from a *sea of 64 KB
//! cache banks*: any bank on the chip can be assigned to any Virtual Core,
//! addresses are low-order interleaved by cache line across a VCore's banks,
//! and hit latency grows with the bank's network distance from the issuing
//! Slice (Table 3: `distance*2 + 4`). Reconfiguring a VCore's bank set
//! requires flushing dirty bank state to memory (§3.8). Between VCores of a
//! VM, an L2 directory keeps L1s coherent (§3.5).
//!
//! This crate provides those pieces:
//!
//! * [`SetAssocCache`] — LRU set-associative cache core used for both L1s
//!   and L2 banks;
//! * [`L2Array`] — the per-VCore bank set with interleaving and the paper's
//!   distance-based latency model;
//! * [`MshrFile`] — miss-status holding registers for non-blocking caches;
//! * [`directory`] — the MSI directory protocol between VCores;
//! * [`L2Overlay`] and [`DirectoryOverlay`] — copy-on-write views of an
//!   L2 and a directory that copy only the sets and entries they touch.
//!
//! # Example
//!
//! ```
//! use sharing_cache::{CacheGeometry, SetAssocCache};
//!
//! let mut l1 = SetAssocCache::new(CacheGeometry::new(16 << 10, 64, 2)?);
//! let line = 0x4000 >> 6;
//! assert!(!l1.access(line, false).hit); // cold miss
//! assert!(l1.access(line, false).hit);  // now resident
//! # Ok::<(), sharing_cache::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod l2;
pub mod mshr;
pub mod partition;
pub mod set_assoc;

pub use directory::{CoherenceAction, DirState, Directory, DirectoryOverlay};
pub use l2::{L2Array, L2LatencyModel, L2Outcome, L2Overlay};
pub use mshr::MshrFile;
pub use partition::WayPartitionedCache;
pub use set_assoc::{AccessOutcome, CacheGeometry, CacheStats, GeometryError, SetAssocCache};
