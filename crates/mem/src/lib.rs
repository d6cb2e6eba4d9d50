//! `cedar-mem` — the Cedar memory hierarchy.
//!
//! The paper (§2, "Memory Hierarchy") describes a two-level physical
//! organization that this crate models in full:
//!
//! * 64 MB of globally shared memory, double-word (8-byte) interleaved
//!   and aligned, directly addressable by every CE, with a
//!   **synchronization processor in each module** executing indivisible
//!   Test-And-Set and Test-And-Operate instructions ([`global`],
//!   [`sync`]);
//! * four 32 MB cluster memories, each private to its cluster and
//!   fronted by a 512 KB physically-addressed, 4-way-interleaved,
//!   write-back, lockup-free shared cache with 32-byte lines
//!   ([`cluster`], [`cache`]);
//! * software-maintained coherence for cluster copies of global data
//!   ("coherence between multiple copies of globally shared data
//!   residing in cluster memory is maintained in software",
//!   [`coherence`]);
//! * a virtual memory system with 4 KB pages in which the physical
//!   address space is split in half — cluster memory below, global
//!   memory above — with software-managed coherence and page tables
//!   living in global memory ([`address`], [`vm`]).
//!
//! Data can move between cluster and global memory *only* via explicit
//! software-controlled copies; coherence between multiple cluster
//! copies of global data is maintained in software. The global memory
//! system is weakly ordered.
//!
//! # Examples
//!
//! ```
//! use cedar_mem::global::GlobalMemory;
//! use cedar_mem::sync::{SyncInstruction, TestOp, AtomicOp};
//!
//! let mut gm = GlobalMemory::with_words(1024);
//! gm.write_word(0, 5);
//! // Cedar Test-And-Operate: if mem[0] > 3 then add 10, reporting
//! // the old value and whether the test passed.
//! let outcome = gm.sync_op(0, SyncInstruction::test_and_op(
//!     TestOp::Greater, 3, AtomicOp::Add, 10,
//! ));
//! assert!(outcome.test_passed);
//! assert_eq!(outcome.old_value, 5);
//! assert_eq!(gm.read_word(0), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod cache;
pub mod cluster;
pub mod coherence;
pub mod global;
pub mod sync;
pub mod vm;

pub use address::{PAddr, Region, VAddr, PAGE_SIZE_BYTES, WORD_BYTES};
pub use cache::{CacheConfig, CacheOutcome, SharedCache};
pub use cluster::ClusterMemory;
pub use coherence::{CoherenceDirectory, CopyState, ProtocolAction};
pub use global::GlobalMemory;
pub use sync::{AtomicOp, SyncInstruction, SyncOutcome, TestOp};
pub use vm::{PageFaultKind, Tlb, VirtualMemory};
