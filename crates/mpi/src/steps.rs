//! The one definition of each converted collective algorithm: a
//! per-member [`Steps`] program, built in program order by the
//! algorithm's function and run by `RankCtx::collective` — on messages,
//! or evaluated with the other members' programs in one rendezvous.
//!
//! An algorithm's message schedule depends only on the member's rank,
//! the group size and the payload length, never on payload contents, so
//! it is recorded up front and interpreted step by step; a receive names
//! what it does with the payload ([`Sink`]) and a send what it sends
//! ([`Source`]).

use hcs_sim::msg::Payload;
use hcs_sim::{RankCtx, Step, StepProgram};

use crate::{Comm, ReduceOp};

/// What a send step sends.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The whole working buffer.
    Buf,
    /// `buf[lo..hi]`.
    Range(usize, usize),
    /// Part `i` (scatter's chunks at the root).
    Part(usize),
}

/// What a receive step does with the payload.
#[derive(Debug, Clone, Copy)]
enum Sink {
    /// Reduce it into the whole working buffer.
    Fold,
    /// Reduce it into `buf[lo..hi]`.
    FoldRange(usize, usize),
    /// It becomes the working buffer.
    Replace,
    /// Copy it over `buf[lo..hi]`.
    CopyRange(usize, usize),
    /// It becomes part `i` (gather's contributions at the root).
    Part(usize),
    /// Nothing (barrier tokens).
    Drop,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Send(usize, Source),
    Recv(usize, Sink),
}

/// One member's program of a collective: its steps, with member
/// indices of the communicator as peers, and the data they move.
pub(crate) struct Steps {
    ops: Vec<Op>,
    /// Index of the next step in `ops`.
    pc: usize,
    /// What to do with the payload the last receive step asked for.
    sink: Sink,
    /// The working buffer: this member's contribution on entry, its
    /// result at the end.
    pub(crate) buf: Vec<u8>,
    /// Per-member buffers: gather's contributions or scatter's chunks,
    /// at the root.
    pub(crate) parts: Vec<Vec<u8>>,
    /// The reduction of the fold steps, if it has any.
    op: Option<ReduceOp>,
}

impl Steps {
    /// A program over the working buffer `buf` that moves data but
    /// reduces none, for a group of `p` members: it has room for the
    /// `2 ⌈log₂ p⌉ + 2` steps of a tree or hypercube schedule.
    pub(crate) fn new(buf: Vec<u8>, p: usize) -> Self {
        let depth = (usize::BITS - p.saturating_sub(1).leading_zeros()) as usize;
        Steps {
            ops: Vec::with_capacity(2 * depth + 2),
            pc: 0,
            sink: Sink::Drop,
            buf,
            parts: Vec::new(),
            op: None,
        }
    }

    /// [`Steps::new`] for a program that folds with `op`.
    pub(crate) fn reducing(buf: Vec<u8>, p: usize, op: ReduceOp) -> Self {
        Steps {
            op: Some(op),
            ..Self::new(buf, p)
        }
    }

    /// Sends the working buffer to member `to`.
    pub(crate) fn send(&mut self, to: usize) {
        self.ops.push(Op::Send(to, Source::Buf));
    }

    /// Sends `buf[lo..hi]` to member `to`.
    pub(crate) fn send_range(&mut self, to: usize, (lo, hi): (usize, usize)) {
        self.ops.push(Op::Send(to, Source::Range(lo, hi)));
    }

    /// Sends part `i` to member `to`.
    pub(crate) fn send_part(&mut self, to: usize, i: usize) {
        self.ops.push(Op::Send(to, Source::Part(i)));
    }

    /// Receives from member `from` and reduces it into the buffer.
    pub(crate) fn recv_fold(&mut self, from: usize) {
        self.ops.push(Op::Recv(from, Sink::Fold));
    }

    /// Receives from member `from` and reduces it into `buf[lo..hi]`.
    pub(crate) fn recv_fold_range(&mut self, from: usize, (lo, hi): (usize, usize)) {
        self.ops.push(Op::Recv(from, Sink::FoldRange(lo, hi)));
    }

    /// Receives the new working buffer from member `from`.
    pub(crate) fn recv_replace(&mut self, from: usize) {
        self.ops.push(Op::Recv(from, Sink::Replace));
    }

    /// Receives `buf[lo..hi]` from member `from`.
    pub(crate) fn recv_copy_range(&mut self, from: usize, (lo, hi): (usize, usize)) {
        self.ops.push(Op::Recv(from, Sink::CopyRange(lo, hi)));
    }

    /// Receives part `i` from member `from`.
    pub(crate) fn recv_part(&mut self, from: usize, i: usize) {
        self.ops.push(Op::Recv(from, Sink::Part(i)));
    }

    /// Receives a token from member `from`.
    pub(crate) fn recv_drop(&mut self, from: usize) {
        self.ops.push(Op::Recv(from, Sink::Drop));
    }

    fn reduction(&self) -> ReduceOp {
        self.op.expect("fold steps belong to a reducing program")
    }

    fn absorb(&mut self, got: Payload) {
        match self.sink {
            Sink::Fold => self.reduction().fold(&mut self.buf, &got),
            Sink::FoldRange(lo, hi) => self.reduction().fold(&mut self.buf[lo..hi], &got),
            Sink::Replace => self.buf = got.into_vec(),
            Sink::CopyRange(lo, hi) => self.buf[lo..hi].copy_from_slice(&got),
            Sink::Part(i) => self.parts[i] = got.into_vec(),
            Sink::Drop => {}
        }
    }
}

impl StepProgram for Steps {
    fn next(&mut self, got: Option<Payload>) -> Step<'_> {
        if let Some(got) = got {
            self.absorb(got);
        }
        let Some(&op) = self.ops.get(self.pc) else {
            return Step::Done;
        };
        self.pc += 1;
        match op {
            Op::Send(to, Source::Buf) => Step::Send(to, &self.buf),
            Op::Send(to, Source::Range(lo, hi)) => Step::Send(to, &self.buf[lo..hi]),
            Op::Send(to, Source::Part(i)) => Step::Send(to, &self.parts[i]),
            Op::Recv(from, sink) => {
                self.sink = sink;
                Step::Recv(from)
            }
        }
    }
}

impl Comm {
    /// Runs this member's `steps` of one collective on a fresh internal
    /// tag and returns them finished.
    pub(crate) fn run_steps(&mut self, ctx: &mut RankCtx, steps: Steps) -> Steps {
        let tag = self.next_coll_tag();
        ctx.collective(&self.group, self.my_pos, tag, steps)
    }
}
