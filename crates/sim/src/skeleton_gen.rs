//! Generated communication-skeleton table. **DO NOT EDIT.**
//!
//! Regenerate with `cargo run -p xtask -- skeleton --emit`; the CI
//! lint job fails when this file drifts from the skeleton extracted
//! out of `crates/{core,mpi,benchlib}` sources.

use crate::protomon::SkeletonEntry;

/// Collective-tag marker bit, mirrored from `hcs-mpi::COLL_BIT` at
/// emit time: tags with this bit (or anything above it) set are
/// dynamically allocated and carry no static contract.
pub(crate) const SKELETON_COLL_BIT: u32 = 0x10000;

/// Per-tag wire contract extracted by the xtask skeleton pass,
/// sorted by tag value for binary search. Empty `sizes` means the
/// payload length is not statically fixed (raw byte-slice traffic).
#[rustfmt::skip]
pub(crate) const SKELETON: &[SkeletonEntry] = &[
    SkeletonEntry {
        tag: 0x101,
        name: "TAG_PING",
        kinds: "time|f64",
        sizes: &[8],
        send_sites: "crates/core/src/offset.rs:121,129,254,262",
        recv_sites: "crates/core/src/offset.rs:119,130,252,263",
    },
    SkeletonEntry {
        tag: 0x102,
        name: "TAG_RTT",
        kinds: "f64",
        sizes: &[8],
        send_sites: "crates/core/src/offset.rs:204,212",
        recv_sites: "crates/core/src/offset.rs:205,211",
    },
    SkeletonEntry {
        tag: 0x140,
        name: "TAG_TABLE",
        kinds: "bytes",
        sizes: &[],
        send_sites: "crates/core/src/hca2.rs:130,161",
        recv_sites: "crates/core/src/hca2.rs:139,171",
    },
    SkeletonEntry {
        tag: 0x180,
        name: "TAG_REPORT",
        kinds: "f64",
        sizes: &[8],
        send_sites: "crates/core/src/check.rs:132",
        recv_sites: "crates/core/src/check.rs:115,122",
    },
    SkeletonEntry {
        tag: 0x300,
        name: "TAG_L",
        kinds: "bytes",
        sizes: &[],
        send_sites: "crates/benchlib/src/workloads.rs:145",
        recv_sites: "crates/benchlib/src/workloads.rs:147",
    },
    SkeletonEntry {
        tag: 0x301,
        name: "TAG_R",
        kinds: "bytes",
        sizes: &[],
        send_sites: "crates/benchlib/src/workloads.rs:144",
        recv_sites: "crates/benchlib/src/workloads.rs:146",
    },
];
