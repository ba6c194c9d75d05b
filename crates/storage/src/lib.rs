//! # tsubasa-storage
//!
//! Sketch persistence for the disk-based TSUBASA configuration (paper §3.4).
//!
//! The paper stores basic-window sketches in PostgreSQL, written by a single
//! dedicated database worker and read back at query time. This crate
//! substitutes one purpose-built backend with the same contract: a
//! single-file, append-only, memory-mapped sketch **pile** ([`pile`]).
//!
//! * segments store window-major `f64` tables in the exact layout the query
//!   kernel consumes, so queries read zero-copy views off the map instead of
//!   decoding records;
//! * a [`PileBatchWriter`] runs on its own thread and appends window-major
//!   slabs drained from a channel — the "database worker" of the parallel
//!   engine — with an explicit [`SyncPolicy`];
//! * space accounting ([`SketchPile::space_bytes`]) feeds the Figure 6d
//!   experiment.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod pile;

pub use pile::{
    CompactStats, PileBatchWriter, PileCorrs, PileSlab, PileWriter, PileWriterStats, SegmentKind,
    SketchPile, StoreLayout, SyncPolicy,
};
