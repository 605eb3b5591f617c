//! Typed user tags: the wire contract of every point-to-point exchange.
//!
//! A [`Tag<T>`] names its payload type, so `Comm::send_t` and
//! `Comm::recv_t` infer `T` from the tag and both ends of an exchange
//! agree on it or the program does not compile. Raw byte traffic uses
//! [`Tag<Bytes>`]. Every user tag is listed once in [`tags`]; `Tag::new`
//! is private, so no other tag can exist, and one `const` assertion
//! proves the list's values distinct and below the collective range.

use std::marker::PhantomData;

/// The engine's raw tag (`hcs_sim::Tag`), as it travels on the wire.
pub(crate) type RawTag = hcs_sim::Tag;

/// Marks collective (internally generated) tags; user tags stay below.
pub(crate) const COLL_BIT: RawTag = 1 << 16;

/// A user tag whose messages carry a `T` (see [`tags`]).
pub struct Tag<T> {
    pub(crate) raw: RawTag,
    payload: PhantomData<fn() -> T>,
}

/// Payload marker for raw byte traffic (`Comm::send` / `Comm::recv`).
pub enum Bytes {}

impl<T> Tag<T> {
    /// Panics — at compile time for every `const` in [`tags`] — unless
    /// `raw` is below the collective range.
    const fn new(raw: RawTag) -> Self {
        assert!(raw < COLL_BIT, "user tags must be below COLL_BIT");
        Self {
            raw,
            payload: PhantomData,
        }
    }
}

impl<T> Clone for Tag<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Tag<T> {}

/// Whether every value in `raws` occurs once.
const fn distinct(raws: &[RawTag]) -> bool {
    let mut i = 0;
    while i < raws.len() {
        let mut j = i + 1;
        while j < raws.len() {
            if raws[i] == raws[j] {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

/// The registry: every user tag, with the payload its messages carry.
///
/// Point-to-point matching is per `(source, tag)`, so a tag may be
/// shared by concurrent pairs but never by two protocols. The payload
/// type is checked by rustc: receiving a `PING` as `f64` does not
/// compile.
///
/// ```
/// use hcs_clock::GlobalTime;
/// use hcs_mpi::{tags, Comm};
/// use hcs_sim::RankCtx;
///
/// fn pong(comm: &Comm, ctx: &mut RankCtx) -> GlobalTime {
///     comm.recv_t(ctx, 0, tags::PING)
/// }
/// ```
///
/// ```compile_fail
/// use hcs_mpi::{tags, Comm};
/// use hcs_sim::RankCtx;
///
/// fn pong(comm: &Comm, ctx: &mut RankCtx) -> f64 {
///     comm.recv_t(ctx, 0, tags::PING)
/// }
/// ```
///
/// Raw bytes travel only on `Tag<Bytes>`, and typed values only on
/// typed tags:
///
/// ```
/// use hcs_mpi::{tags, Comm};
/// use hcs_sim::RankCtx;
///
/// fn ship(comm: &Comm, ctx: &mut RankCtx) {
///     comm.send(ctx, 1, tags::TABLE, &[0u8; 16]);
/// }
/// ```
///
/// ```compile_fail
/// use hcs_mpi::{tags, Comm};
/// use hcs_sim::RankCtx;
///
/// fn ship(comm: &Comm, ctx: &mut RankCtx) {
///     comm.send(ctx, 1, tags::PING, &[0u8; 16]);
/// }
/// ```
///
/// ```
/// use hcs_mpi::{tags, Comm};
/// use hcs_sim::RankCtx;
///
/// fn report(comm: &Comm, ctx: &mut RankCtx) {
///     comm.send_t(ctx, 0, tags::REPORT, 0.5f64);
/// }
/// ```
///
/// ```compile_fail
/// use hcs_mpi::{tags, Comm};
/// use hcs_sim::RankCtx;
///
/// fn report(comm: &Comm, ctx: &mut RankCtx) {
///     comm.send_t(ctx, 0, tags::TABLE, 0.5f64);
/// }
/// ```
pub mod tags {
    use hcs_clock::GlobalTime;

    use super::{distinct, Bytes, RawTag, Tag};

    /// Offset-measurement ping-pongs (SKaMPI-Offset and Mean-RTT-Offset):
    /// each leg carries the sender's clock reading.
    pub const PING: Tag<GlobalTime> = Tag::new(0x0101);
    /// Mean-RTT-Offset's round-trip measurement (dummy `f64` payloads).
    pub const RTT: Tag<f64> = Tag::new(0x0102);
    /// HCA2's composed model tables, shipped up the tree.
    pub const TABLE: Tag<Bytes> = Tag::new(0x0140);
    /// Clients' offsets reported to the root by `check_clock_accuracy`.
    pub const REPORT: Tag<f64> = Tag::new(0x0180);
    /// Halo exchange with the left neighbour (`halo_proxy`).
    pub const HALO_L: Tag<Bytes> = Tag::new(0x300);
    /// Halo exchange with the right neighbour (`halo_proxy`).
    pub const HALO_R: Tag<Bytes> = Tag::new(0x301);

    /// The raw value of every tag above; a new tag joins this list.
    pub const ALL: [RawTag; 6] = [
        PING.raw, RTT.raw, TABLE.raw, REPORT.raw, HALO_L.raw, HALO_R.raw,
    ];

    const _: () = assert!(distinct(&ALL), "user tags must be distinct");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_rejects_a_duplicate() {
        assert!(distinct(&tags::ALL));
        assert!(distinct(&[]));
        assert!(!distinct(&[0x101, 0x102, 0x101]));
        assert!(!distinct(&[7, 7]));
    }

    #[test]
    #[should_panic(expected = "below COLL_BIT")]
    fn new_panics_on_a_collective_tag_at_run_time() {
        let _ = Tag::<f64>::new(std::hint::black_box(COLL_BIT));
    }
}
