//! [`Schedule`]: one member's part of a collective, as plain data.
//!
//! An algorithm's message schedule depends only on the member's rank,
//! the group size and the payload length, never on payload contents, so
//! the algorithm records it up front: its ops in program order, each
//! send naming what it sends ([`Source`]) and each receive what it does
//! with the payload ([`Sink`]). [`crate::RankCtx::collective`] walks
//! the ops on messages, or the rendezvous evaluator walks every
//! member's ops at once; either way the schedule comes back holding
//! the member's result.

#![forbid(unsafe_code)]

use crate::msg::{Payload, INLINE_PAYLOAD};

/// The reduction of a schedule's fold receives: folds the second
/// slice into the first, element-wise.
pub type Fold = fn(&mut [u8], &[u8]);

/// What a send op sends.
#[derive(Debug, Clone, Copy)]
pub(super) enum Source {
    /// The whole working buffer.
    Buf,
    /// `buf[lo..hi]`.
    Range(u32, u32),
    /// Part `i` (scatter's chunks at the root).
    Part(u32),
}

/// What a receive op does with the payload.
#[derive(Debug, Clone, Copy)]
pub(super) enum Sink {
    /// Fold it into the whole working buffer.
    Fold,
    /// Fold it into `buf[lo..hi]`.
    FoldRange(u32, u32),
    /// It becomes the working buffer.
    Replace,
    /// Copy it over `buf[lo..hi]`.
    CopyRange(u32, u32),
    /// It becomes part `i` (gather's contributions at the root).
    Part(u32),
    /// Nothing (barrier tokens).
    Drop,
}

/// One op of a schedule, with member indices of the group as peers.
#[derive(Debug, Clone, Copy)]
pub(super) enum Op {
    Send(u32, Source),
    Recv(u32, Sink),
}

/// One member's schedule of a collective: its ops in program order,
/// with member indices of the group as peers, and the data they move.
///
/// A schedule keeps its capacity from one [`Schedule::start`] to the
/// next, so a caller that keeps one per communicator builds each
/// collective without allocating. It lives behind one pointer, so the
/// collective moves it into a rendezvous slot and back as one word.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// `None` until the first [`Schedule::start`].
    state: Option<Box<State>>,
}

#[derive(Debug, Clone, Default)]
struct State {
    ops: Vec<Op>,
    /// The working buffer, unless `shared` holds a received one.
    own: Vec<u8>,
    /// The working buffer as a payload: a received one, forwarded by
    /// reference, or `own` as last sent.
    shared: Option<Payload>,
    /// Whether `shared` was received, so `own` is stale.
    received: bool,
    /// Per-member payloads: gather's contributions or scatter's chunks,
    /// at the root.
    parts: Vec<Payload>,
    /// The reduction of the fold receives, if there are any.
    fold: Option<Fold>,
}

impl Schedule {
    /// An empty schedule (it allocates at its first start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new schedule over a working buffer holding `data`,
    /// folding with `fold`: no ops, no parts.
    #[inline]
    pub fn start(&mut self, data: &[u8], fold: Option<Fold>) {
        let s = self.state.get_or_insert_with(Box::default);
        s.ops.clear();
        s.own.clear();
        s.own.extend_from_slice(data);
        s.shared = None;
        s.received = false;
        s.parts.clear();
        s.fold = fold;
    }

    /// The working buffer: the contribution before the collective, the
    /// result after it.
    #[inline]
    pub fn data(&self) -> &[u8] {
        self.state.as_deref().map_or(&[], State::data)
    }

    /// The parts: set them at a scatter root, read them at a gather
    /// root.
    #[inline]
    pub fn parts_mut(&mut self) -> &mut Vec<Payload> {
        &mut self.started().parts
    }

    /// Sends the working buffer to member `to`.
    #[inline]
    pub fn send(&mut self, to: usize) {
        self.push(Op::Send(index(to), Source::Buf));
    }

    /// Sends `buf[lo..hi]` to member `to`.
    #[inline]
    pub fn send_range(&mut self, to: usize, (lo, hi): (usize, usize)) {
        self.push(Op::Send(index(to), Source::Range(index(lo), index(hi))));
    }

    /// Sends part `i` to member `to`.
    #[inline]
    pub fn send_part(&mut self, to: usize, i: usize) {
        self.push(Op::Send(index(to), Source::Part(index(i))));
    }

    /// Receives from member `from` and folds it into the buffer.
    #[inline]
    pub fn recv_fold(&mut self, from: usize) {
        self.push(Op::Recv(index(from), Sink::Fold));
    }

    /// Receives from member `from` and folds it into `buf[lo..hi]`.
    #[inline]
    pub fn recv_fold_range(&mut self, from: usize, (lo, hi): (usize, usize)) {
        self.push(Op::Recv(index(from), Sink::FoldRange(index(lo), index(hi))));
    }

    /// Receives the new working buffer from member `from`.
    #[inline]
    pub fn recv_replace(&mut self, from: usize) {
        self.push(Op::Recv(index(from), Sink::Replace));
    }

    /// Receives `buf[lo..hi]` from member `from`.
    #[inline]
    pub fn recv_copy_range(&mut self, from: usize, (lo, hi): (usize, usize)) {
        self.push(Op::Recv(index(from), Sink::CopyRange(index(lo), index(hi))));
    }

    /// Receives part `i` from member `from`.
    #[inline]
    pub fn recv_part(&mut self, from: usize, i: usize) {
        self.push(Op::Recv(index(from), Sink::Part(index(i))));
    }

    /// Receives a token from member `from`.
    #[inline]
    pub fn recv_drop(&mut self, from: usize) {
        self.push(Op::Recv(index(from), Sink::Drop));
    }

    #[inline]
    fn push(&mut self, op: Op) {
        self.started().ops.push(op);
    }

    #[inline]
    fn started(&mut self) -> &mut State {
        self.state
            .as_deref_mut()
            .expect("a schedule is started before it is built")
    }

    /// The ops, in program order.
    #[inline]
    pub(super) fn ops(&self) -> &[Op] {
        self.state.as_deref().map_or(&[], |s| &s.ops)
    }

    /// The payload a send op sends. A heap-sized working buffer is
    /// shared from its first send on, so later sends of it, and every
    /// forward of a received one, clone a reference.
    #[inline]
    pub(super) fn payload(&mut self, src: Source) -> Payload {
        let s = self.started();
        match src {
            Source::Buf => match &s.shared {
                Some(p) => p.clone(),
                None if s.own.len() <= INLINE_PAYLOAD => Payload::from_slice(&s.own),
                None => s.shared.insert(Payload::from_slice(&s.own)).clone(),
            },
            Source::Range(lo, hi) => Payload::from_slice(&s.data()[lo as usize..hi as usize]),
            Source::Part(i) => s.parts[i as usize].clone(),
        }
    }

    /// What a receive op does with the payload it received.
    #[inline]
    pub(super) fn absorb(&mut self, sink: Sink, got: Payload) {
        let s = self.started();
        match sink {
            Sink::Fold => {
                let fold = s.reduction();
                fold(s.own_mut(), &got);
            }
            Sink::FoldRange(lo, hi) => {
                let fold = s.reduction();
                fold(&mut s.own_mut()[lo as usize..hi as usize], &got);
            }
            Sink::Replace => {
                s.shared = Some(got);
                s.received = true;
            }
            Sink::CopyRange(lo, hi) => {
                s.own_mut()[lo as usize..hi as usize].copy_from_slice(&got);
            }
            Sink::Part(i) => s.parts[i as usize] = got,
            Sink::Drop => {}
        }
    }
}

impl State {
    #[inline]
    fn data(&self) -> &[u8] {
        match &self.shared {
            Some(p) => p,
            None => &self.own,
        }
    }

    /// The working buffer, writable: a received one is copied into
    /// `own` first.
    fn own_mut(&mut self) -> &mut [u8] {
        if let Some(p) = self.shared.take() {
            if self.received {
                self.own.clear();
                self.own.extend_from_slice(&p);
                self.received = false;
            }
        }
        &mut self.own
    }

    fn reduction(&self) -> Fold {
        self.fold
            .expect("fold receives belong to a folding schedule")
    }
}

#[inline]
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("a schedule index fits in 32 bits")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(a: &Payload, b: &Payload) -> bool {
        matches!((a, b), (Payload::Shared(x), Payload::Shared(y)) if std::ptr::eq(x.bytes(), y.bytes()))
    }

    #[test]
    fn a_heap_buffer_is_shared_from_its_first_send_on() {
        let mut s = Schedule::new();
        s.start(&[7; 100], None);
        let first = s.payload(Source::Buf);
        assert!(shares(&first, &s.payload(Source::Buf)));
        assert_eq!(&*first, &[7; 100][..]);
        // A small buffer travels inline.
        s.start(&[1; 16], None);
        assert!(s.payload(Source::Buf).is_inline());
    }

    #[test]
    fn a_received_payload_is_forwarded_by_reference() {
        let got = Payload::from_slice(&[3; 64]);
        let mut s = Schedule::new();
        s.start(&[], None);
        s.absorb(Sink::Replace, got.clone());
        assert!(shares(&got, &s.payload(Source::Buf)));
        assert_eq!(s.data(), &[3; 64][..]);
    }

    #[test]
    fn a_fold_after_a_send_leaves_the_sent_payload_alone() {
        let mut s = Schedule::new();
        s.start(
            &[1; 24],
            Some(|acc, other| acc.iter_mut().zip(other).for_each(|(a, b)| *a += b)),
        );
        let sent = s.payload(Source::Buf);
        s.absorb(Sink::Fold, Payload::from_slice(&[1; 24]));
        assert_eq!(s.data(), &[2; 24][..]);
        assert_eq!(&*sent, &[1; 24][..]);
        let again = s.payload(Source::Buf);
        assert!(!shares(&sent, &again), "a changed buffer is shared anew");
        assert_eq!(&*again, &[2; 24][..]);
    }

    #[test]
    fn writing_a_shared_buffer_copies_it_first() {
        let got = Payload::from_slice(&[2; 24]);
        let mut s = Schedule::new();
        s.start(
            &[],
            Some(|acc, other| acc.iter_mut().zip(other).for_each(|(a, b)| *a += b)),
        );
        s.absorb(Sink::Replace, got.clone());
        s.absorb(Sink::Fold, Payload::from_slice(&[1; 24]));
        assert_eq!(s.data(), &[3; 24][..]);
        assert_eq!(&*got, &[2; 24][..], "the sender's copy is untouched");
        s.absorb(Sink::CopyRange(0, 8), Payload::from_slice(&[9; 8]));
        assert_eq!(&s.data()[..9], &[9, 9, 9, 9, 9, 9, 9, 9, 3]);
    }
}
