//! The core contribution of the paper: a bounded-memory, single-pass
//! synopsis of data access correlations.
//!
//! The [`OnlineAnalyzer`] consumes [`Transaction`]s produced by the
//! monitoring module (crate `rtdac-monitor`) and maintains two
//! [`TwoTierTable`]s — an *item table* of extents and a *correlation
//! table* of extent pairs — that together characterize spatial locality
//! (extents), frequency (tally-based promotion) and temporal locality
//! (LRU within each tier), as described in §III-D of *Real-Time
//! Characterization of Data Access Correlations* (ISPASS 2021).
//!
//! # Examples
//!
//! Detect a recurring correlation among noise:
//!
//! ```
//! use rtdac_synopsis::{AnalyzerConfig, OnlineAnalyzer};
//! use rtdac_types::{Extent, Timestamp, Transaction};
//!
//! let mut analyzer = OnlineAnalyzer::new(AnalyzerConfig::with_capacity(256));
//! let inode = Extent::new(8, 1)?;
//! let data = Extent::new(5_000, 64)?;
//! for i in 0..10u64 {
//!     // The correlated pair ...
//!     analyzer.process(&Transaction::from_extents(
//!         Timestamp::from_millis(i * 200),
//!         [inode, data],
//!     ));
//!     // ... and some one-off noise.
//!     analyzer.process(&Transaction::from_extents(
//!         Timestamp::from_millis(i * 200 + 100),
//!         [Extent::new(900_000 + i * 17, 8)?],
//!     ));
//! }
//! let frequent = analyzer.frequent_pairs(10);
//! assert_eq!(frequent.len(), 1);
//! assert_eq!(frequent[0].0.first(), inode);
//! # Ok::<(), rtdac_types::ExtentError>(())
//! ```
//!
//! [`Transaction`]: rtdac_types::Transaction

mod analyzer;
mod budget;
mod delta;
mod live;
mod map_table;
mod partners;
mod reference;
mod sharded;
mod snapshot;
mod table;

pub use analyzer::{
    Admission, AnalyzerConfig, AnalyzerStats, DoorkeeperConfig, OnlineAnalyzer, Snapshot,
    ITEM_ENTRY_BYTES, PAIR_ENTRY_BYTES,
};
pub use budget::analyzer_config_for;
pub use delta::{DeltaOp, ShardDelta, TableDelta};
pub use live::LiveView;
pub use map_table::{MapIter, MapTable};
pub use reference::ReferenceAnalyzer;
pub use sharded::{shard_of_extent, shard_of_pair, ShardedAnalyzer};
pub use snapshot::SynopsisSnapshot;
pub use table::{Iter, Record, TableStats, Tier, TwoTierTable};
