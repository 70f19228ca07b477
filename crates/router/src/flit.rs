//! Flits — the flow-control units of wormhole routing.

use cr_sim::{Cycle, MessageId, NodeId};
use std::fmt;
use std::ops::Range;

/// Identity of one worm *instance* in flight: a message plus its
/// retransmission attempt number.
///
/// Compressionless Routing kills and retransmits messages; the flits of
/// a killed attempt may still be draining out of link pipelines when the
/// retry enters the network, so attempt numbers — not just message ids —
/// distinguish live flits from corpses.
///
/// # Examples
///
/// ```
/// use cr_router::WormId;
/// use cr_sim::MessageId;
///
/// let first = WormId::new(MessageId::new(7), 0);
/// let retry = first.next_attempt();
/// assert_eq!(retry.attempt, 1);
/// assert_eq!(first.message, retry.message);
/// assert_ne!(first, retry);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct WormId {
    /// The message this worm carries.
    pub message: MessageId,
    /// Retransmission attempt, starting at 0.
    pub attempt: u32,
}

impl WormId {
    /// Creates a worm identity.
    pub const fn new(message: MessageId, attempt: u32) -> Self {
        WormId { message, attempt }
    }

    /// The identity of the next retransmission attempt.
    pub const fn next_attempt(self) -> Self {
        WormId {
            message: self.message,
            attempt: self.attempt + 1,
        }
    }
}

impl fmt::Display for WormId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.message, self.attempt)
    }
}

/// The role of a flit within its worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries the routing information.
    Head,
    /// Payload flit.
    Body,
    /// PAD flit appended by Fault-tolerant CR so the worm spans its
    /// whole path (making the tail's acceptance an implicit
    /// end-to-end acknowledgement).
    Pad,
    /// Last flit; releases channels as it passes.
    Tail,
}

impl FlitKind {
    /// Returns `true` for the tail flit.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail)
    }

    /// Returns `true` for the header flit.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head)
    }

    /// The role of flit `seq` in a worm of `worm_len` flits whose
    /// first `payload_len` carry the message (see [`worm_flits`]).
    pub fn at(seq: u32, payload_len: u32, worm_len: u32) -> FlitKind {
        if seq == 0 {
            FlitKind::Head
        } else if seq + 1 == worm_len {
            FlitKind::Tail
        } else if seq >= payload_len {
            FlitKind::Pad
        } else {
            FlitKind::Body
        }
    }
}

/// One flow-control unit.
///
/// Real flits carry a handful of payload bits; the simulator carries
/// bookkeeping instead. The `corrupted` flag is the substitute for a
/// per-flit checksum: a fault sets it, the next router *detects* it
/// (see the fault model's detection miss rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Which worm instance this flit belongs to.
    pub worm: WormId,
    /// Head/body/pad/tail role.
    pub kind: FlitKind,
    /// Source node of the message.
    pub src: NodeId,
    /// Destination node of the message.
    pub dst: NodeId,
    /// Position within the worm (header = 0).
    pub seq: u32,
    /// Per-(src,dst) message sequence number, for order checking.
    pub msg_seq: u64,
    /// Total worm length in flits, padding included (header carries
    /// the authoritative value; every flit repeats it for convenience).
    pub worm_len: u32,
    /// Payload length in flits (worm length minus padding).
    pub payload_len: u32,
    /// When the *message* was created (not this attempt).
    pub created: Cycle,
    /// Set once the worm takes a deadlock-escape virtual channel under
    /// Duato's protocol; escaped worms stay on the escape network.
    pub escaped: bool,
    /// Hops traversed so far (incremented on each link traversal);
    /// bounds misrouting.
    pub hops: u16,
    /// Set when a fault corrupts this flit in flight.
    pub corrupted: bool,
}

impl Flit {
    /// Builds the `seq`-th flit of a worm.
    ///
    /// The caller supplies the `kind`; `worm_len`/`payload_len` are the
    /// padded and unpadded lengths in flits.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        worm: WormId,
        kind: FlitKind,
        src: NodeId,
        dst: NodeId,
        seq: u32,
        msg_seq: u64,
        worm_len: u32,
        payload_len: u32,
        created: Cycle,
    ) -> Self {
        Flit {
            worm,
            kind,
            src,
            dst,
            seq,
            msg_seq,
            worm_len,
            payload_len,
            created,
            escaped: false,
            hops: 0,
            corrupted: false,
        }
    }

    /// Returns `true` for the tail flit.
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }

    /// Returns `true` for the header flit.
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// The flit `d` places further down the same worm, with everything
    /// that is not a function of the position (hops taken, flags)
    /// unchanged: what occupies this flit's slot `d` cycles later in a
    /// worm streaming one flit per cycle.
    pub fn advanced(&self, d: u32) -> Flit {
        let seq = self.seq + d;
        Flit {
            seq,
            kind: FlitKind::at(seq, self.payload_len, self.worm_len),
            ..*self
        }
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}/{}] {:?} {}->{}",
            self.worm, self.seq, self.worm_len, self.kind, self.src, self.dst
        )
    }
}

/// Generates the flits of one worm, in order.
///
/// `payload_len` flits of real message (head, bodies, and — when there
/// is no padding — the tail) plus `pad` PAD flits; the final flit is
/// always the tail. With padding, the tail is the last PAD slot,
/// modelling FCR's "transmission is complete only when the (padded)
/// tail enters the network".
///
/// # Panics
///
/// Panics if `payload_len < 2` (a worm needs a head and a tail).
///
/// # Examples
///
/// ```
/// use cr_router::flit::{worm_flits, WormId};
/// use cr_router::FlitKind;
/// use cr_sim::{Cycle, MessageId, NodeId};
///
/// let flits: Vec<_> = worm_flits(
///     WormId::new(MessageId::new(1), 0),
///     NodeId::new(0), NodeId::new(5),
///     4,      // payload flits
///     3,      // pad flits
///     7,      // per-pair sequence number
///     Cycle::ZERO,
/// ).collect();
/// assert_eq!(flits.len(), 7);
/// assert!(flits[0].is_head());
/// assert_eq!(flits[4].kind, FlitKind::Pad);
/// assert!(flits[6].is_tail());
/// ```
pub fn worm_flits(
    worm: WormId,
    src: NodeId,
    dst: NodeId,
    payload_len: u32,
    pad: u32,
    msg_seq: u64,
    created: Cycle,
) -> impl Iterator<Item = Flit> {
    assert!(payload_len >= 2, "a worm needs a head and a tail flit");
    (0..payload_len + pad)
        .map(move |seq| worm_flit_at(worm, src, dst, payload_len, pad, msg_seq, created, seq))
}

/// The `seq`-th flit of the worm [`worm_flits`] generates from the
/// same arguments — what an injector replaying its message from source
/// memory builds each cycle, without walking the flits before it.
///
/// # Panics
///
/// Panics if `payload_len < 2` or `seq` is past the worm's last flit.
#[allow(clippy::too_many_arguments)]
pub fn worm_flit_at(
    worm: WormId,
    src: NodeId,
    dst: NodeId,
    payload_len: u32,
    pad: u32,
    msg_seq: u64,
    created: Cycle,
    seq: u32,
) -> Flit {
    assert!(payload_len >= 2, "a worm needs a head and a tail flit");
    let worm_len = payload_len + pad;
    assert!(seq < worm_len, "flit {seq} past a {worm_len}-flit worm");
    Flit::new(
        worm,
        FlitKind::at(seq, payload_len, worm_len),
        src,
        dst,
        seq,
        msg_seq,
        worm_len,
        payload_len,
        created,
    )
}

/// The sequence numbers `flits` (front to back) cover when they are a
/// run of consecutive body or pad flits of `worm`, none corrupted or
/// escaped — what a queue holds of a worm streaming behind its
/// ejected header — and `None` otherwise. An empty run covers `0..0`.
pub fn stream_run<'a>(
    flits: impl IntoIterator<Item = &'a Flit>,
    worm: WormId,
) -> Option<Range<u32>> {
    let mut seqs: Option<Range<u32>> = None;
    for f in flits {
        let body = matches!(f.kind, FlitKind::Body | FlitKind::Pad);
        if f.worm != worm || !body || f.corrupted || f.escaped {
            return None;
        }
        match &mut seqs {
            None => seqs = Some(f.seq..f.seq + 1),
            Some(run) if run.end == f.seq => run.end += 1,
            Some(_) => return None,
        }
    }
    Some(seqs.unwrap_or(0..0))
}

/// One queue on the path of a worm streaming one flit per cycle, `d`
/// cycles after it held the consecutive run of the worm's flits that
/// starts at sequence number `from` (or, empty, expected `from` next):
/// every cycle it popped its front flit and took the one behind it,
/// until the worm's `tail` had gone. What sat in a slot is then the flit
/// `d` places further down the worm, and slots past the tail are empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shift {
    /// Sequence number of the queue's first flit when the run was taken.
    pub from: u32,
    /// Cycles since.
    pub d: u32,
    /// Sequence number of the worm's tail flit.
    pub tail: u32,
}

impl Shift {
    /// Flits that left the queue: one a cycle, until the tail had gone.
    pub fn popped(&self) -> u32 {
        self.d.min((self.tail + 1).saturating_sub(self.from))
    }

    /// How many of the `len` flits the queue held it holds now.
    pub fn kept(&self, len: usize) -> usize {
        ((self.tail + 1).saturating_sub(self.from + self.d) as usize).min(len)
    }

    /// Whether the tail has left the queue.
    pub fn tail_left(&self) -> bool {
        self.from + self.d > self.tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worm() -> WormId {
        WormId::new(MessageId::new(3), 1)
    }

    #[test]
    fn worm_id_attempts() {
        let w = worm();
        assert_eq!(w.next_attempt().attempt, 2);
        assert_eq!(w.to_string(), "m3#1");
    }

    #[test]
    fn unpadded_worm_shape() {
        let flits: Vec<Flit> = worm_flits(
            worm(),
            NodeId::new(0),
            NodeId::new(1),
            4,
            0,
            0,
            Cycle::ZERO,
        )
        .collect();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq == i as u32));
        assert!(flits.iter().all(|f| f.worm_len == 4 && f.payload_len == 4));
    }

    #[test]
    fn padded_worm_ends_with_tail() {
        let flits: Vec<Flit> = worm_flits(
            worm(),
            NodeId::new(0),
            NodeId::new(1),
            2,
            5,
            0,
            Cycle::ZERO,
        )
        .collect();
        assert_eq!(flits.len(), 7);
        assert_eq!(flits[0].kind, FlitKind::Head);
        // With payload 2 and padding, the payload "tail slot" becomes a
        // body-position; pads fill the middle; the final flit is Tail.
        assert_eq!(flits[6].kind, FlitKind::Tail);
        let pads = flits.iter().filter(|f| f.kind == FlitKind::Pad).count();
        assert_eq!(pads, 4); // seq 2..=5 are pads, seq 6 is the tail
    }

    #[test]
    fn minimum_worm_is_head_and_tail() {
        let flits: Vec<Flit> =
            worm_flits(worm(), NodeId::new(0), NodeId::new(1), 2, 0, 0, Cycle::ZERO).collect();
        assert_eq!(flits.len(), 2);
        assert!(flits[0].is_head());
        assert!(flits[1].is_tail());
    }

    /// Advancing a flit gives the flit the generator builds for the
    /// later position — role included — and keeps what the flit picked
    /// up in flight.
    #[test]
    fn advanced_flit_is_the_later_flit_of_the_same_worm() {
        let (src, dst) = (NodeId::new(0), NodeId::new(1));
        let at = |seq| worm_flit_at(worm(), src, dst, 3, 4, 9, Cycle::new(5), seq);
        for seq in 1..6 {
            for d in 0..7 - seq {
                let mut f = at(seq);
                f.hops = 4;
                let mut want = at(seq + d);
                want.hops = 4;
                assert_eq!(f.advanced(d), want, "seq {seq} + {d}");
            }
        }
        assert_eq!(at(5).advanced(1).kind, FlitKind::Tail);
    }

    #[test]
    fn stream_run_accepts_only_a_consecutive_mid_worm_run() {
        let fs: Vec<Flit> =
            worm_flits(worm(), NodeId::new(0), NodeId::new(1), 3, 4, 0, Cycle::ZERO).collect();
        assert_eq!(stream_run(&fs[2..5], worm()), Some(2..5));
        assert_eq!(stream_run(&[], worm()), Some(0..0));
        assert_eq!(stream_run(&fs[0..2], worm()), None, "head");
        assert_eq!(stream_run(&fs[5..7], worm()), None, "tail");
        assert_eq!(stream_run([&fs[2], &fs[4]], worm()), None, "gap");
        assert_eq!(
            stream_run(&fs[2..4], worm().next_attempt()),
            None,
            "other worm"
        );
        let mut bad = fs[3];
        bad.corrupted = true;
        assert_eq!(stream_run([&fs[2], &bad], worm()), None, "corrupted");
    }

    #[test]
    #[should_panic]
    fn single_flit_worm_rejected() {
        let _ = worm_flits(worm(), NodeId::new(0), NodeId::new(1), 1, 0, 0, Cycle::ZERO)
            .collect::<Vec<_>>();
    }

    #[test]
    fn display_is_informative() {
        let f = Flit::new(
            worm(),
            FlitKind::Head,
            NodeId::new(2),
            NodeId::new(9),
            0,
            0,
            8,
            8,
            Cycle::ZERO,
        );
        let s = f.to_string();
        assert!(s.contains("m3#1") && s.contains("n2") && s.contains("n9"));
    }
}
