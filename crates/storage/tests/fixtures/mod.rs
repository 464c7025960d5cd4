//! Golden images of the formats this repository no longer writes: v3, which
//! it still reads, and the retired v1 and v2, which every entry point
//! refuses (commit `5b41903` is the last build that reads them).
//!
//! All four were written once by the last writers of those formats (the
//! `persist::to_bytes_v*` functions at commit `1b53e56`) and can never be
//! regenerated, so tests take their reference rows from the images
//! themselves, never from a fresh `generate` call.
//!
//! * [`V1`], [`V2`], [`V3`]: one table — the `version_matrix` table,
//!   `with_signed_sessions(&generate(&GeneratorConfig::small()))` (the game
//!   schema's `session` folded into `-3..=3`), compressed with
//!   `CompressionOptions::with_chunk_size(256)`: 9 173 rows in 24 chunks.
//!   [`V3`] is the reference table the tests decode, and `to_bytes` of it is
//!   what `persist::compact` makes of [`V3`]; [`V1`] and [`V2`] are the
//!   inputs of the refusal tests.
//! * [`V1_EMPTY`]: the 196-byte v1 image of an empty table with the same
//!   schema and chunk size, refused like the others.
//!
//! The storage integration tests include this file as `mod fixtures;`; the
//! storage unit tests and `cohana-core`'s integration tests through
//! `#[path]`.

#![allow(dead_code)]

/// The v1 (eager, no footer) image.
pub const V1: &[u8] = include_bytes!("v1.cohana");
/// The v2 (footer-indexed whole-chunk blobs) image.
pub const V2: &[u8] = include_bytes!("v2.cohana");
/// The v3 (footer-indexed raw column blobs) image.
pub const V3: &[u8] = include_bytes!("v3.cohana");
/// The v1 image of the empty table.
pub const V1_EMPTY: &[u8] = include_bytes!("v1_empty.cohana");
