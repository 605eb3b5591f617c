//! Delivery semantics of the message path: every message posted before
//! a park or before body end is delivered, FIFO per (src, tag) however
//! many messages wait in the inbox, and per-destination streams in post
//! order when a sender alternates destinations. A sender pushes each
//! envelope into the destination's inbox as it posts it, and a receive
//! takes its match from there; how many messages wait at once must not
//! be observable.

use hierarchical_clock_sync::prelude::*;

/// Long enough that many messages wait in the receiver's inbox at once.
const BURST: u32 = 100;

#[test]
fn sends_are_delivered_before_the_sender_parks() {
    // Rank 0 sends and then immediately blocks in a receive; if the
    // send were not delivered on the way into the blocking receive,
    // both ranks would wait on messages neither delivered (and the
    // deadlock detector would confirm a cycle that user code never
    // wrote).
    let cluster = machines::testbed(2, 1).cluster(41);
    let out = cluster.run(|ctx| {
        let peer = 1 - ctx.rank();
        if ctx.rank() == 0 {
            ctx.send_t(peer, 1, 11.5f64);
            let v: f64 = ctx.recv_t(peer, 2);
            v
        } else {
            let v: f64 = ctx.recv_t(peer, 1);
            ctx.send_t(peer, 2, v + 1.0);
            v
        }
    });
    assert_eq!(out, vec![12.5, 11.5]);
}

#[test]
fn fifo_order_is_preserved_for_a_burst_on_one_tag() {
    // A burst of BURST messages on one (src, tag) waits in the
    // receiver's inbox; it must still observe exact send order.
    let cluster = machines::testbed(2, 1).cluster(42);
    cluster.run(|ctx| {
        if ctx.rank() == 0 {
            for i in 0..BURST {
                ctx.send_t(1, 9, i);
            }
        } else {
            for i in 0..BURST {
                let got: u32 = ctx.recv_t(0, 9);
                assert_eq!(got, i, "batch boundary reordered a (src, tag) stream");
            }
        }
    });
}

#[test]
fn fifo_order_is_preserved_per_tag_when_tags_interleave() {
    // Two interleaved tag streams from one sender: each stream must be
    // FIFO on its own (the odd stream waits in the inbox while the
    // receiver takes the even one first).
    let cluster = machines::testbed(2, 1).cluster(43);
    cluster.run(|ctx| {
        if ctx.rank() == 0 {
            for i in 0..BURST {
                ctx.send_t(1, 2 + (i & 1), i);
            }
        } else {
            for tag in [2u32, 3] {
                let mut last = None;
                for _ in 0..BURST / 2 {
                    let got: u32 = ctx.recv_t(0, tag);
                    assert_eq!(got & 1, tag - 2, "message crossed tag streams");
                    assert!(last < Some(got), "tag {tag} stream reordered");
                    last = Some(got);
                }
            }
        }
    });
}

#[test]
fn sends_are_delivered_at_body_end() {
    // A body that ends right after its sends (no blocking operation
    // afterwards) must still deliver everything it posted.
    let cluster = machines::testbed(2, 1).cluster(44);
    let out = cluster.run(|ctx| {
        if ctx.rank() == 0 {
            for i in 0..5u32 {
                ctx.send_t(1, 4, i);
            }
            0
        } else {
            (0..5).map(|_| ctx.recv_t::<u32>(0, 4)).sum()
        }
    });
    assert_eq!(out[1], 10);
}

#[test]
fn alternating_destinations_preserve_each_destinations_send_order() {
    // Sends alternate between two destinations; each inbox must
    // receive its stream in post order. Virtual arrival times are
    // fixed at send time either way — this pins the host-side
    // delivery too.
    let cluster = machines::testbed(3, 1).cluster(45);
    let out = cluster.run(|ctx| {
        if ctx.rank() == 0 {
            for i in 0..BURST {
                ctx.send_t(1 + (i % 2) as usize, 6, i);
            }
            0
        } else {
            let mut sum = 0u32;
            for _ in 0..BURST / 2 {
                sum += ctx.recv_t::<u32>(0, 6);
            }
            sum
        }
    });
    // Rank 1 gets the even stream, rank 2 the odd one.
    let even: u32 = (0..BURST).filter(|i| i % 2 == 0).sum();
    let odd: u32 = (0..BURST).filter(|i| i % 2 == 1).sum();
    assert_eq!(out, vec![0, even, odd]);
}
