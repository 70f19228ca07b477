//! The message reception interface (the paper's Fig. 8).
//!
//! The receiver assembles ejected flits into messages, interprets PAD
//! flits (stripping them from the delivered payload), discards partial
//! messages on kills, rejects duplicates, and — because adaptive
//! routing can let consecutive messages overtake each other in flight —
//! re-establishes per-(source, destination) order with sequence
//! numbers before delivering to the processor, preserving CR's
//! order-preserving transmission property end to end.

use cr_router::{Flit, FlitKind, WormId};
use cr_sim::{Cycle, MessageId, NodeId};
use std::collections::BTreeMap;

/// A message handed to the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredMessage {
    /// Message id.
    pub id: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination (this receiver's node).
    pub dst: NodeId,
    /// Payload flits (padding stripped).
    pub payload_len: u32,
    /// Worm length on the wire (padding included).
    pub worm_len: u32,
    /// Per-(src, dst) sequence number.
    pub msg_seq: u64,
    /// Message creation time.
    pub created: Cycle,
    /// Delivery time (tail flit ejected and order re-established).
    pub delivered: Cycle,
    /// Attempts it took (1 = no retransmission).
    pub attempts: u32,
    /// `true` if any payload flit arrived corrupted — must never
    /// happen under FCR with perfect detection; counted as an
    /// integrity violation.
    pub corrupt: bool,
}

/// Receiver-side event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverCounters {
    /// Completed worms that arrived ahead of a predecessor and were
    /// held for reordering.
    pub out_of_order_arrivals: u64,
    /// Completed worms for an already-delivered sequence number
    /// (dropped).
    pub duplicates_dropped: u64,
    /// Partial assemblies discarded by kill teardown.
    pub partials_discarded: u64,
    /// Stale assemblies reaped by [`Receiver::prune`].
    pub assemblies_pruned: u64,
    /// PAD flits received (stripped overhead).
    pub pad_flits: u64,
}

#[derive(Debug)]
struct Assembly {
    flits_seen: u32,
    corrupt_payload: bool,
    last_update: Cycle,
}

/// The reception interface of one node.
#[derive(Debug)]
pub struct Receiver {
    node: NodeId,
    // BTreeMaps, not HashMaps: `prune` iterates `assembling`, and a
    // defined iteration order keeps every observable path
    // deterministic by construction (cr-lint `hash-collections`).
    assembling: BTreeMap<WormId, Assembly>,
    /// Next expected msg_seq per source.
    expected: BTreeMap<NodeId, u64>,
    /// Completed-but-early worms, keyed by (src, msg_seq).
    reorder: BTreeMap<(NodeId, u64), DeliveredMessage>,
    counters: ReceiverCounters,
}

impl Receiver {
    /// Creates the receiver for `node`.
    pub fn new(node: NodeId) -> Self {
        Receiver {
            node,
            assembling: BTreeMap::new(),
            expected: BTreeMap::new(),
            reorder: BTreeMap::new(),
            counters: ReceiverCounters::default(),
        }
    }

    /// The node this receiver serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Event counters.
    pub fn counters(&self) -> &ReceiverCounters {
        &self.counters
    }

    /// Worms currently mid-assembly.
    pub fn assembling_len(&self) -> usize {
        self.assembling.len()
    }

    /// Completed messages currently held for reordering.
    pub fn reorder_len(&self) -> usize {
        self.reorder.len()
    }

    /// Accepts one ejected flit; returns any messages that become
    /// deliverable (a tail can release a chain of held successors).
    ///
    /// # Panics
    ///
    /// Panics if the flit is not addressed to this node.
    pub fn on_flit(&mut self, now: Cycle, flit: Flit) -> Vec<DeliveredMessage> {
        assert_eq!(flit.dst, self.node, "misdelivered flit");
        if flit.seq >= flit.payload_len {
            // Padding overhead (PAD flits plus the appended tail slot).
            self.counters.pad_flits += 1;
        }
        let asm = self.assembling.entry(flit.worm).or_insert(Assembly {
            flits_seen: 0,
            corrupt_payload: false,
            last_update: now,
        });
        asm.flits_seen += 1;
        asm.last_update = now;
        if flit.corrupted && flit.kind != FlitKind::Pad {
            asm.corrupt_payload = true;
        }
        if !flit.is_tail() {
            return Vec::new();
        }

        // Tail: the worm is complete. The entry was created (or
        // touched) above, so this only misses if that invariant
        // breaks — stay loud in debug, drop the worm in release.
        let Some(asm) = self.assembling.remove(&flit.worm) else {
            debug_assert!(false, "tail flit without an assembly");
            return Vec::new();
        };
        debug_assert_eq!(asm.flits_seen, flit.worm_len, "flits went missing");
        let msg = DeliveredMessage {
            id: flit.worm.message,
            src: flit.src,
            dst: flit.dst,
            payload_len: flit.payload_len,
            worm_len: flit.worm_len,
            msg_seq: flit.msg_seq,
            created: flit.created,
            delivered: now,
            attempts: flit.worm.attempt + 1,
            corrupt: asm.corrupt_payload,
        };
        self.sequence(msg)
    }

    /// Applies per-source sequencing to a completed worm.
    fn sequence(&mut self, msg: DeliveredMessage) -> Vec<DeliveredMessage> {
        let expected = self.expected.entry(msg.src).or_insert(0);
        let mut out = Vec::new();
        match msg.msg_seq.cmp(expected) {
            std::cmp::Ordering::Less => {
                self.counters.duplicates_dropped += 1;
            }
            std::cmp::Ordering::Greater => {
                self.counters.out_of_order_arrivals += 1;
                self.reorder.insert((msg.src, msg.msg_seq), msg);
            }
            std::cmp::Ordering::Equal => {
                out.push(msg);
                *expected += 1;
                // Drain any successors already waiting.
                while let Some(next) = self.reorder.remove(&(msg.src, *expected)) {
                    out.push(next);
                    *expected += 1;
                }
            }
        }
        out
    }

    /// Appends this receiver's protocol-relevant state to `out` in the
    /// model checker's canonical form (see [`crate::check_api`]).
    /// `label` maps a raw message id to its `(src, dst, msg_seq)` flow
    /// key so the encoding is invariant under message-id assignment
    /// order; assemblies are sorted by that key before encoding
    /// because `BTreeMap` iteration follows raw ids. Metrics-only
    /// fields (counters, `created`/`delivered` stamps) are excluded.
    pub(crate) fn encode_state(
        &self,
        now: Cycle,
        label: &dyn Fn(MessageId) -> (u32, u32, u64),
        out: &mut Vec<u8>,
    ) {
        fn put_label(out: &mut Vec<u8>, l: (u32, u32, u64)) {
            out.extend_from_slice(&l.0.to_le_bytes());
            out.extend_from_slice(&l.1.to_le_bytes());
            out.extend_from_slice(&l.2.to_le_bytes());
        }
        let mut asm: Vec<((u32, u32, u64), u32, &Assembly)> = self
            .assembling
            .iter()
            .map(|(w, a)| (label(w.message), w.attempt, a))
            .collect();
        asm.sort_by_key(|&(l, attempt, _)| (l, attempt));
        out.extend_from_slice(&crate::network::idx32(asm.len()).to_le_bytes());
        for (l, attempt, a) in asm {
            put_label(out, l);
            out.extend_from_slice(&attempt.to_le_bytes());
            out.extend_from_slice(&a.flits_seen.to_le_bytes());
            out.push(u8::from(a.corrupt_payload));
            out.extend_from_slice(&now.saturating_since(a.last_update).to_le_bytes());
        }
        out.extend_from_slice(&crate::network::idx32(self.expected.len()).to_le_bytes());
        for (n, seq) in &self.expected {
            out.extend_from_slice(&n.as_u32().to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
        }
        out.extend_from_slice(&crate::network::idx32(self.reorder.len()).to_le_bytes());
        for ((src, seq), m) in &self.reorder {
            out.extend_from_slice(&src.as_u32().to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&m.payload_len.to_le_bytes());
            out.extend_from_slice(&m.worm_len.to_le_bytes());
            out.extend_from_slice(&m.attempts.to_le_bytes());
            out.push(u8::from(m.corrupt));
        }
    }

    /// When `worm`'s open assembly last took a flit.
    pub(crate) fn assembly_stamp(&self, worm: WormId) -> Option<Cycle> {
        self.assembling.get(&worm).map(|a| a.last_update)
    }

    /// Takes `d` more flits of `worm`'s open assembly in closed form —
    /// `pads` of them padding, the last at `upto` — as a run of
    /// [`Receiver::on_flit`] calls with no tail and no corrupted
    /// payload would.
    pub(crate) fn advance_stream(&mut self, worm: WormId, d: u32, pads: u32, upto: Cycle) {
        if let Some(asm) = self.assembling.get_mut(&worm).filter(|_| d > 0) {
            asm.flits_seen += d;
            asm.last_update = upto;
            self.counters.pad_flits += u64::from(pads);
        }
    }

    /// Discards the partial assembly of `worm` (forward kill reached
    /// the ejection port, or its flits were dropped mid-flight).
    pub fn discard(&mut self, worm: WormId) {
        if self.assembling.remove(&worm).is_some() {
            self.counters.partials_discarded += 1;
        }
    }

    /// Reaps assemblies untouched since `horizon` (teardown corpses
    /// whose kill token never reached the ejection side).
    pub fn prune(&mut self, horizon: Cycle) {
        let before = self.assembling.len();
        self.assembling.retain(|_, a| a.last_update >= horizon);
        self.counters.assemblies_pruned += (before - self.assembling.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_router::flit::worm_flits;

    fn worm_id(msg: u64, attempt: u32) -> WormId {
        WormId::new(MessageId::new(msg), attempt)
    }

    fn flits(msg: u64, attempt: u32, payload: u32, pad: u32, seq: u64) -> Vec<Flit> {
        worm_flits(
            worm_id(msg, attempt),
            NodeId::new(1),
            NodeId::new(0),
            payload,
            pad,
            seq,
            Cycle::ZERO,
        )
        .collect()
    }

    #[test]
    fn assembles_and_delivers_in_order() {
        let mut rx = Receiver::new(NodeId::new(0));
        let fs = flits(1, 0, 4, 0, 0);
        let mut got = Vec::new();
        for (i, f) in fs.iter().enumerate() {
            let out = rx.on_flit(Cycle::new(i as u64), *f);
            got.extend(out);
        }
        assert_eq!(got.len(), 1);
        let m = got[0];
        assert_eq!(m.id, MessageId::new(1));
        assert_eq!(m.payload_len, 4);
        assert_eq!(m.attempts, 1);
        assert!(!m.corrupt);
        assert_eq!(m.delivered, Cycle::new(3));
    }

    #[test]
    fn pads_are_counted_and_stripped() {
        let mut rx = Receiver::new(NodeId::new(0));
        let fs = flits(1, 0, 2, 3, 0);
        let mut got = Vec::new();
        for f in &fs {
            got.extend(rx.on_flit(Cycle::ZERO, *f));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload_len, 2);
        assert_eq!(got[0].worm_len, 5);
        assert_eq!(rx.counters().pad_flits, 3);
    }

    #[test]
    fn out_of_order_messages_are_held_and_released() {
        let mut rx = Receiver::new(NodeId::new(0));
        // Message seq 1 completes first (overtook seq 0 in flight).
        for f in &flits(2, 0, 2, 0, 1) {
            assert!(rx.on_flit(Cycle::ZERO, *f).is_empty());
        }
        assert_eq!(rx.counters().out_of_order_arrivals, 1);
        assert_eq!(rx.reorder_len(), 1);
        // Seq 0 arrives: both deliver, in order.
        let mut got = Vec::new();
        for f in &flits(1, 0, 2, 0, 0) {
            got.extend(rx.on_flit(Cycle::new(5), *f));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].msg_seq, 0);
        assert_eq!(got[1].msg_seq, 1);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut rx = Receiver::new(NodeId::new(0));
        for f in &flits(1, 0, 2, 0, 0) {
            let _ = rx.on_flit(Cycle::ZERO, *f);
        }
        // A retransmitted copy of seq 0 completes later.
        let mut got = Vec::new();
        for f in &flits(1, 1, 2, 0, 0) {
            got.extend(rx.on_flit(Cycle::new(9), *f));
        }
        assert!(got.is_empty());
        assert_eq!(rx.counters().duplicates_dropped, 1);
    }

    #[test]
    fn discard_drops_partial_assembly() {
        let mut rx = Receiver::new(NodeId::new(0));
        let fs = flits(1, 0, 4, 0, 0);
        let _ = rx.on_flit(Cycle::ZERO, fs[0]);
        let _ = rx.on_flit(Cycle::ZERO, fs[1]);
        assert_eq!(rx.assembling_len(), 1);
        rx.discard(worm_id(1, 0));
        assert_eq!(rx.assembling_len(), 0);
        assert_eq!(rx.counters().partials_discarded, 1);
        // Discarding again is a no-op.
        rx.discard(worm_id(1, 0));
        assert_eq!(rx.counters().partials_discarded, 1);
    }

    #[test]
    fn corrupt_payload_is_flagged_but_pad_corruption_is_not() {
        let mut rx = Receiver::new(NodeId::new(0));
        let mut fs = flits(1, 0, 3, 2, 0);
        fs[1].corrupted = true; // payload body flit
        let mut got = Vec::new();
        for f in &fs {
            got.extend(rx.on_flit(Cycle::ZERO, *f));
        }
        assert!(got[0].corrupt);

        let mut fs = flits(2, 0, 3, 2, 1);
        fs[3].corrupted = true; // PAD flit: payload unharmed
        let mut got = Vec::new();
        for f in &fs {
            got.extend(rx.on_flit(Cycle::ZERO, *f));
        }
        assert!(!got[0].corrupt);
    }

    #[test]
    fn prune_reaps_stale_assemblies() {
        let mut rx = Receiver::new(NodeId::new(0));
        let fs = flits(1, 0, 4, 0, 0);
        let _ = rx.on_flit(Cycle::new(10), fs[0]);
        rx.prune(Cycle::new(5)); // not stale yet
        assert_eq!(rx.assembling_len(), 1);
        rx.prune(Cycle::new(100));
        assert_eq!(rx.assembling_len(), 0);
        assert_eq!(rx.counters().assemblies_pruned, 1);
    }

    #[test]
    fn pruned_partial_then_retransmit_delivers_exactly_once() {
        // Attempt 0 is killed mid-flight: head and one body flit make
        // it to the ejection side, the tail never does, and (the kill
        // token having died with the worm) nobody calls discard(). The
        // periodic prune reaps the corpse; the retransmitted attempt 1
        // then delivers exactly once, and nothing double-counts.
        let mut rx = Receiver::new(NodeId::new(0));
        let a0 = flits(1, 0, 4, 0, 0);
        assert!(rx.on_flit(Cycle::new(10), a0[0]).is_empty());
        assert!(rx.on_flit(Cycle::new(11), a0[1]).is_empty());
        assert_eq!(rx.assembling_len(), 1);

        rx.prune(Cycle::new(500));
        assert_eq!(rx.assembling_len(), 0);
        assert_eq!(rx.counters().assemblies_pruned, 1);

        let mut got = Vec::new();
        for f in &flits(1, 1, 4, 0, 0) {
            got.extend(rx.on_flit(Cycle::new(600), *f));
        }
        assert_eq!(got.len(), 1, "retransmit delivers exactly once");
        assert_eq!(got[0].id, MessageId::new(1));
        assert_eq!(got[0].attempts, 2);
        assert_eq!(rx.counters().duplicates_dropped, 0);
        assert_eq!(rx.counters().partials_discarded, 0);
        assert_eq!(rx.assembling_len(), 0);
    }

    #[test]
    fn discarded_partial_then_retransmit_delivers_exactly_once() {
        // Same story, but the kill token *does* reach the ejection
        // side: discard() reaps the partial, then the retry delivers.
        let mut rx = Receiver::new(NodeId::new(0));
        let a0 = flits(3, 0, 5, 0, 0);
        assert!(rx.on_flit(Cycle::new(1), a0[0]).is_empty());
        assert!(rx.on_flit(Cycle::new(2), a0[1]).is_empty());
        rx.discard(worm_id(3, 0));
        assert_eq!(rx.counters().partials_discarded, 1);

        let mut got = Vec::new();
        for f in &flits(3, 1, 5, 0, 0) {
            got.extend(rx.on_flit(Cycle::new(40), *f));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].attempts, 2);

        // A straggling duplicate of the whole message (e.g. the kill
        // raced a fully-delivered worm) is sequenced out.
        let mut got = Vec::new();
        for f in &flits(3, 2, 5, 0, 0) {
            got.extend(rx.on_flit(Cycle::new(80), *f));
        }
        assert!(got.is_empty());
        assert_eq!(rx.counters().duplicates_dropped, 1);
    }

    #[test]
    fn prune_spares_live_assemblies_while_reaping_stale_ones() {
        // Two in-progress worms; only the stale one is reaped.
        let mut rx = Receiver::new(NodeId::new(0));
        let stale = flits(7, 0, 4, 0, 0);
        let live = flits(8, 0, 4, 0, 1);
        let _ = rx.on_flit(Cycle::new(10), stale[0]);
        let _ = rx.on_flit(Cycle::new(490), live[0]);
        rx.prune(Cycle::new(400));
        assert_eq!(rx.assembling_len(), 1);
        assert_eq!(rx.counters().assemblies_pruned, 1);
        // The survivor still completes normally.
        let mut got = Vec::new();
        for f in &live[1..] {
            got.extend(rx.on_flit(Cycle::new(495), *f));
        }
        // seq 1 waits for seq 0 (killed message 7 will eventually
        // retransmit), so it is held, not dropped.
        assert!(got.is_empty());
        assert_eq!(rx.reorder_len(), 1);
        assert_eq!(rx.counters().out_of_order_arrivals, 1);
    }

    #[test]
    #[should_panic]
    fn misdelivered_flit_panics() {
        let mut rx = Receiver::new(NodeId::new(9));
        let fs = flits(1, 0, 2, 0, 0);
        let _ = rx.on_flit(Cycle::ZERO, fs[0]);
    }
}
