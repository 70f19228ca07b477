//! The CR/FCR injector — the "smart" network interface at each source.
//!
//! The injector is where Compressionless Routing actually lives (the
//! paper's Fig. 7: message injector hardware). Per injection channel it
//! keeps one in-flight worm and:
//!
//! * **pads** the worm to `I_min` flits so it spans its path;
//! * counts accepted flits and watches for **stalls**: a full injection
//!   FIFO is exactly the back-pressure signal the paper's flow-control
//!   handshake provides;
//! * declares the worm **committed** once `I_min` flits are in (header
//!   provably at the destination);
//! * requests a **kill** when an uncommitted worm stalls past the
//!   timeout, then **retransmits** after a gap chosen by the
//!   [`RetransmitScheme`];
//! * preserves order: one message at a time per channel, retried
//!   head-of-line.

use crate::config::{Ablations, ProtocolKind};
use crate::retransmit::RetransmitScheme;
use cr_router::flit::worm_flit_at;
use cr_router::{Router, WormId};
use cr_sim::{Cycle, MessageId, NodeId, SimRng};
use std::collections::{BTreeMap, VecDeque};

/// A message waiting to be (re)transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMessage {
    /// Globally unique message id.
    pub id: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload length in flits (header and tail included, padding
    /// excluded).
    pub payload_len: u32,
    /// Per-(src, dst) sequence number, for order preservation.
    pub msg_seq: u64,
    /// Creation time (latency is measured from here, across retries).
    pub created: Cycle,
    /// Minimal path length in hops (precomputed by the network).
    pub hops: usize,
    /// Commitment threshold for this message's path (see
    /// `NetworkConfig::i_min`; includes any misroute allowance).
    pub i_min: usize,
    /// Transmission attempts so far (0 before the first).
    pub attempts: u32,
}

/// Coarse injector state, exposed for tests and introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectorState {
    /// No message in hand.
    Idle,
    /// Pushing a worm's flits into the injection FIFO.
    Sending,
    /// Waiting out a retransmission gap after a kill.
    Backoff,
}

/// What happened during one injector cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorOutcome {
    /// A flit entered the injection FIFO this cycle.
    pub injected_flit: bool,
    /// The injected flit was a PAD flit.
    pub injected_pad: bool,
    /// The injector wants this worm killed (uncommitted + stalled past
    /// the timeout). The network performs the teardown and then calls
    /// [`Injector::on_killed`].
    pub kill: Option<WormId>,
    /// The worm's last flit entered the network this cycle.
    pub finished_injection: bool,
    /// A retransmission began this cycle.
    pub restarted: bool,
    /// A worm attempt began this cycle (fresh pickup or a retry
    /// leaving backoff), with its destination: the trace layer's
    /// `Inject` event.
    pub started: Option<(WormId, NodeId)>,
    /// The worm crossed its commitment point (`I_min` flits accepted)
    /// this cycle: the trace layer's `Commit` event. Only reported
    /// under protocols with commitment semantics (CR/FCR, commitment
    /// ablation off).
    pub committed: Option<WormId>,
}

/// A worm an injector is streaming, as [`Injector::stream`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InjectorStream {
    /// The worm.
    pub worm: WormId,
    /// Sequence number of the next flit to push.
    pub next: u32,
    /// Sequence number of the first flit whose push does more than
    /// count: the commitment point or the tail.
    pub stop: u32,
    /// Payload flits of the message; the flits from here on are padding.
    pub payload_len: u32,
    /// Sequence number of the worm's tail flit.
    pub tail: u32,
}

#[derive(Debug)]
struct Current {
    msg: PendingMessage,
    worm: WormId,
    total_len: u32,
    next: u32,
    stall: u64,
    resume_at: Option<Cycle>, // Some(_) while backing off
}

/// One injection channel's protocol engine. See the module docs.
#[derive(Debug)]
pub struct Injector {
    node: NodeId,
    channel: usize,
    protocol: ProtocolKind,
    timeout: u64,
    retransmit: RetransmitScheme,
    ablations: Ablations,
    queue: VecDeque<PendingMessage>,
    current: Option<Current>,
    /// Fully injected messages not yet confirmed delivered; a backward
    /// kill re-queues them (FCR fault recovery). BTreeMap for a
    /// defined iteration order (cr-lint `hash-collections`).
    vulnerable: BTreeMap<MessageId, PendingMessage>,
    rng: SimRng,
}

impl Injector {
    /// Creates the injector for `(node, channel)`.
    pub fn new(
        node: NodeId,
        channel: usize,
        protocol: ProtocolKind,
        timeout: u64,
        retransmit: RetransmitScheme,
        rng: SimRng,
    ) -> Self {
        Injector {
            node,
            channel,
            protocol,
            timeout,
            retransmit,
            ablations: Ablations::default(),
            queue: VecDeque::new(),
            current: None,
            vulnerable: BTreeMap::new(),
            rng,
        }
    }

    /// Applies research ablation switches (see
    /// [`Ablations`](crate::Ablations)).
    pub fn set_ablations(&mut self, ablations: Ablations) {
        self.ablations = ablations;
    }

    /// Queues a new message for transmission.
    ///
    /// # Panics
    ///
    /// Panics if the message is self-addressed or not from this node.
    pub fn enqueue(&mut self, msg: PendingMessage) {
        assert_eq!(msg.src, self.node, "message from the wrong node");
        assert_ne!(msg.src, msg.dst, "self-addressed message");
        self.queue.push_back(msg);
    }

    /// Messages waiting behind the current one.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Coarse state, for tests.
    pub fn state(&self) -> InjectorState {
        match &self.current {
            None => InjectorState::Idle,
            Some(c) if c.resume_at.is_some() => InjectorState::Backoff,
            Some(_) => InjectorState::Sending,
        }
    }

    /// The worm currently being sent or backed off, if any.
    pub fn current_worm(&self) -> Option<WormId> {
        self.current.as_ref().map(|c| c.worm)
    }

    /// Number of messages injected but not yet confirmed delivered.
    pub fn vulnerable_len(&self) -> usize {
        self.vulnerable.len()
    }

    /// True when nothing is queued, in flight, or vulnerable.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.current.is_none() && self.vulnerable.is_empty()
    }

    /// True when [`Injector::step`] could do anything at all this
    /// cycle: a worm is in hand (sending or backing off) or messages
    /// are queued. `false` implies `step` is a no-op that draws no
    /// RNG — the active-set scheduler's skip condition. (A drained
    /// injector may still be step-inactive while vulnerable messages
    /// await delivery confirmation; those need no cycles.)
    pub fn has_step_work(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty()
    }

    /// The cycle a backing-off current worm resumes at, if the
    /// injector is in backoff. Until then every `step` call
    /// early-returns without touching the queue, so the scheduler may
    /// fast-forward across the gap.
    pub fn backoff_resume(&self) -> Option<Cycle> {
        self.current.as_ref().and_then(|c| c.resume_at)
    }

    /// The worm this injector pushes one flit of on every coming cycle
    /// its FIFO has room, if it is sending one and pushed last cycle.
    pub(crate) fn stream(&self) -> Option<InjectorStream> {
        let c = self
            .current
            .as_ref()
            .filter(|c| c.resume_at.is_none() && c.stall == 0)?;
        let tail = c.total_len - 1;
        let commits = self.protocol.kills() && !self.ablations.ignore_commitment;
        let stop = match crate::network::idx32(c.msg.i_min).checked_sub(1) {
            Some(commit) if commits && commit >= c.next => commit.min(tail),
            _ => tail,
        };
        Some(InjectorStream {
            worm: c.worm,
            next: c.next,
            stop,
            payload_len: c.msg.payload_len,
            tail,
        })
    }

    /// Advances the current worm's stream by `d` pushed flits without
    /// building them; only valid while `next + d` stays below the
    /// `stop` of [`Injector::stream`].
    pub(crate) fn advance_stream(&mut self, d: u32) {
        if let Some(c) = &mut self.current {
            c.next += d;
        }
    }

    /// PAD flits this message needs under the current protocol.
    fn pad_for(&self, msg: &PendingMessage) -> u32 {
        if self.ablations.disable_padding {
            return 0;
        }
        if self.protocol.pads() {
            crate::network::idx32(msg.i_min).saturating_sub(msg.payload_len)
        } else {
            0
        }
    }

    /// Runs one cycle: (re)starts transmissions and pushes at most one
    /// flit into this channel's injection FIFO on `router`.
    pub fn step(&mut self, now: Cycle, router: &mut Router) -> InjectorOutcome {
        let mut out = InjectorOutcome::default();

        // Leave backoff when the gap has elapsed.
        if let Some(c) = &mut self.current {
            if let Some(resume) = c.resume_at {
                if now < resume {
                    return out;
                }
                c.resume_at = None;
                c.next = 0;
                c.stall = 0;
                out.restarted = true;
                out.started = Some((c.worm, c.msg.dst));
            }
        }

        // Pick up the next message.
        if self.current.is_none() {
            let Some(mut msg) = self.queue.pop_front() else {
                return out;
            };
            msg.attempts += 1;
            let pad = self.pad_for(&msg);
            let worm = WormId::new(msg.id, msg.attempts - 1);
            out.started = Some((worm, msg.dst));
            self.current = Some(Current {
                worm,
                total_len: msg.payload_len + pad,
                next: 0,
                stall: 0,
                resume_at: None,
                msg,
            });
        }

        // Either a worm was already in flight or the pickup above
        // installed one (returning early when the queue was empty).
        let Some(c) = self.current.as_mut() else {
            return out;
        };
        let pad = c.total_len - c.msg.payload_len;
        // Regenerating the flit for the current position is cheap and
        // keeps no per-attempt buffer around (the hardware keeps the
        // message in the source's memory anyway).
        let flit = worm_flit_at(
            c.worm,
            c.msg.src,
            c.msg.dst,
            c.msg.payload_len,
            pad,
            c.msg.msg_seq,
            c.msg.created,
            c.next,
        );

        if router.try_inject(now, self.channel, flit) {
            out.injected_flit = true;
            // Everything past the payload is padding overhead —
            // including the appended tail slot when the worm is padded.
            out.injected_pad = flit.seq >= c.msg.payload_len;
            c.next += 1;
            c.stall = 0;
            if c.next as usize == c.msg.i_min
                && self.protocol.kills()
                && !self.ablations.ignore_commitment
            {
                out.committed = Some(c.worm);
            }
            if c.next == c.total_len {
                out.finished_injection = true;
                if let Some(cur) = self.current.take() {
                    self.vulnerable.insert(cur.msg.id, cur.msg);
                }
            }
        } else {
            c.stall += 1;
            let committed =
                !self.ablations.ignore_commitment && (c.next as usize) >= c.msg.i_min;
            if self.protocol.kills() && !committed && c.stall >= self.timeout {
                out.kill = Some(c.worm);
            }
        }
        out
    }

    /// Appends this injector's protocol-relevant state to `out` in the
    /// model checker's canonical form (see [`crate::check_api`]).
    /// Times are relative to `now` and message identities are `(src,
    /// dst, msg_seq)` flow keys rather than raw ids, so two simulator
    /// states that differ only in message-id assignment order encode
    /// identically. Metrics-only fields (`created`, counters) are
    /// deliberately excluded.
    pub(crate) fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) {
        fn put_msg(out: &mut Vec<u8>, m: &PendingMessage) {
            out.extend_from_slice(&m.src.as_u32().to_le_bytes());
            out.extend_from_slice(&m.dst.as_u32().to_le_bytes());
            out.extend_from_slice(&m.msg_seq.to_le_bytes());
            out.extend_from_slice(&m.payload_len.to_le_bytes());
            out.extend_from_slice(&(m.i_min as u64).to_le_bytes());
            out.extend_from_slice(&m.attempts.to_le_bytes());
        }
        out.extend_from_slice(&crate::network::idx32(self.queue.len()).to_le_bytes());
        for m in &self.queue {
            put_msg(out, m);
        }
        match &self.current {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                put_msg(out, &c.msg);
                out.extend_from_slice(&c.worm.attempt.to_le_bytes());
                out.extend_from_slice(&c.total_len.to_le_bytes());
                out.extend_from_slice(&c.next.to_le_bytes());
                out.extend_from_slice(&c.stall.to_le_bytes());
                match c.resume_at {
                    None => out.push(0),
                    Some(r) => {
                        out.push(1);
                        out.extend_from_slice(&r.saturating_since(now).to_le_bytes());
                    }
                }
            }
        }
        let mut vulnerable: Vec<&PendingMessage> = self.vulnerable.values().collect();
        vulnerable.sort_by_key(|m| (m.src, m.dst, m.msg_seq));
        out.extend_from_slice(&crate::network::idx32(vulnerable.len()).to_le_bytes());
        for m in vulnerable {
            put_msg(out, m);
        }
        out.extend_from_slice(&self.rng.words_consumed().to_le_bytes());
    }

    /// Called by the network after it tears down `worm` at this
    /// injector's request (or on its behalf, for path-wide kills):
    /// schedules the retransmission.
    ///
    /// Returns `(retry_attempt, resume_at)` when a retransmission was
    /// scheduled — the zero-based attempt the retry will carry and
    /// the earliest cycle it may start injecting (`now` for a
    /// re-queued vulnerable message, the end of the backoff gap for
    /// the current worm) — or `None` for stale/duplicate
    /// notifications. The network turns this into a
    /// `RetransmitScheduled` trace event.
    pub fn on_killed(&mut self, now: Cycle, worm: WormId) -> Option<(u32, Cycle)> {
        // The kill may concern the current worm...
        if let Some(c) = &mut self.current {
            if c.worm == worm {
                if c.resume_at.is_none() {
                    c.msg.attempts += 1;
                    let gap = self.retransmit.gap(c.msg.attempts - 1, &mut self.rng);
                    c.worm = WormId::new(c.msg.id, c.msg.attempts - 1);
                    let resume = now + gap;
                    c.resume_at = Some(resume);
                    return Some((c.msg.attempts - 1, resume));
                }
                return None;
            }
        }
        // ...or a fully injected (vulnerable) one: re-queue it at the
        // head so per-destination order is preserved as far as
        // possible.
        if let Some(msg) = self.vulnerable.remove(&worm.message) {
            if worm.attempt + 1 == msg.attempts {
                // `step` increments `attempts` when it picks the
                // message back up, so the retry automatically gets the
                // next worm id.
                let retry_attempt = msg.attempts;
                self.queue.push_front(msg);
                return Some((retry_attempt, now));
            }
            // Stale notification for an old attempt; the message
            // has already moved on.
            self.vulnerable.insert(msg.id, msg);
        }
        None
    }

    /// Returns `true` if `worm` is known to be *committed*: its
    /// header has provably reached the destination (either `I_min`
    /// flits have been accepted, or the whole padded worm has been
    /// injected). Killing a committed worm is never necessary for
    /// deadlock recovery — the unnecessary-kill count of the
    /// path-wide comparison is built on this predicate.
    pub fn is_committed(&self, worm: WormId) -> bool {
        if let Some(c) = &self.current {
            if c.worm == worm {
                return (c.next as usize) >= c.msg.i_min;
            }
        }
        if let Some(msg) = self.vulnerable.get(&worm.message) {
            return worm.attempt + 1 == msg.attempts;
        }
        false
    }

    /// Debug introspection: (flits pushed, i_min) for the current worm.
    pub fn debug_progress(&self, worm: WormId) -> Option<(u32, usize)> {
        self.current.as_ref().and_then(|c| {
            (c.worm == worm).then_some((c.next, c.msg.i_min))
        })
    }

    /// Called by the network when the receiver confirms delivery of
    /// `message` (simulation bookkeeping; the protocol itself needs no
    /// acknowledgement).
    pub fn on_delivered(&mut self, message: MessageId) {
        self.vulnerable.remove(&message);
        if let Some(c) = &self.current {
            if c.msg.id == message && c.resume_at.is_some() {
                // A kill raced with a successful delivery: drop the
                // planned retransmission.
                self.current = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_router::{RouterConfig, Router};
    use cr_sim::SimRng;

    fn router() -> Router {
        Router::new(
            NodeId::new(0),
            RouterConfig {
                num_node_ports: 2,
                num_vcs: 1,
                buffer_depth: 2,
                num_inject: 1,
                inject_depth: 2,
                num_eject: 1,
                link_depth: 0,
            },
            SimRng::from_seed(3),
        )
    }

    fn message(payload: u32, i_min: usize) -> PendingMessage {
        PendingMessage {
            id: MessageId::new(1),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            payload_len: payload,
            msg_seq: 0,
            created: Cycle::ZERO,
            hops: 1,
            i_min,
            attempts: 0,
        }
    }

    fn injector(protocol: ProtocolKind, timeout: u64) -> Injector {
        Injector::new(
            NodeId::new(0),
            0,
            protocol,
            timeout,
            RetransmitScheme::StaticGap { gap: 8 },
            SimRng::from_seed(1),
        )
    }

    #[test]
    fn pads_short_messages_to_i_min() {
        let mut inj = injector(ProtocolKind::Cr, 16);
        let mut r = router();
        inj.enqueue(message(2, 5));
        let mut pads = 0;
        let mut total = 0;
        let mut now = Cycle::ZERO;
        // Drain the injection FIFO each cycle so everything fits.
        for _ in 0..20 {
            let out = inj.step(now, &mut r);
            if out.injected_flit {
                total += 1;
                if out.injected_pad {
                    pads += 1;
                }
            }
            // Simulate the downstream network draining the injection
            // FIFO so the injector never stalls.
            let p = r.inject_port(0);
            if r.injection_free(0) == 0 {
                let w = r.front_flit(p, cr_sim::VcId::new(0)).unwrap().worm;
                let _ = r.flush_worm(p, cr_sim::VcId::new(0), w);
            }
            if out.finished_injection {
                break;
            }
            now += 1;
        }
        assert_eq!(total, 5, "worm padded to i_min");
        assert_eq!(pads, 3, "head + 3 pads + tail");
        assert_eq!(inj.vulnerable_len(), 1);
        assert_eq!(inj.state(), InjectorState::Idle);
    }

    #[test]
    fn baseline_never_pads_or_kills() {
        let mut inj = injector(ProtocolKind::Baseline, 4);
        let mut r = router();
        inj.enqueue(message(2, 50));
        let mut now = Cycle::ZERO;
        let out1 = inj.step(now, &mut r);
        now += 1;
        let out2 = inj.step(now, &mut r);
        assert!(out1.injected_flit && out2.injected_flit);
        assert!(out2.finished_injection, "2 payload flits, no padding");
        // FIFO now full; a second message stalls without ever killing.
        inj.enqueue(PendingMessage {
            id: MessageId::new(2),
            ..message(2, 50)
        });
        for _ in 0..100 {
            now += 1;
            let out = inj.step(now, &mut r);
            assert_eq!(out.kill, None);
        }
    }

    #[test]
    fn uncommitted_stall_triggers_kill_and_backoff() {
        let mut inj = injector(ProtocolKind::Cr, 4);
        let mut r = router();
        inj.enqueue(message(8, 10)); // i_min 10 > FIFO depth: will stall
        let mut now = Cycle::ZERO;
        let mut killed = None;
        for _ in 0..20 {
            let out = inj.step(now, &mut r);
            if let Some(w) = out.kill {
                killed = Some(w);
                break;
            }
            now += 1;
        }
        // FIFO holds 2 flits; pushes 1 and 2 succeed, then 4 stall
        // cycles trigger the kill.
        let w = killed.expect("kill requested");
        assert_eq!(w.attempt, 0);
        inj.on_killed(now, w);
        assert_eq!(inj.state(), InjectorState::Backoff);
        // After the static 8-cycle gap the injector restarts with a
        // fresh attempt id.
        let p = r.inject_port(0);
        let _ = r.flush_worm(p, cr_sim::VcId::new(0), w); // network teardown
        let mut restarted = false;
        for _ in 0..20 {
            now += 1;
            let out = inj.step(now, &mut r);
            if out.restarted {
                restarted = true;
                break;
            }
        }
        assert!(restarted);
        assert_eq!(inj.current_worm().unwrap().attempt, 1);
    }

    #[test]
    fn committed_worm_is_never_killed() {
        // i_min 2 (tiny): after 2 flits the worm is committed, so even
        // an eternal stall produces no kill.
        let mut inj = injector(ProtocolKind::Cr, 4);
        let mut r = router();
        inj.enqueue(message(8, 2));
        let mut now = Cycle::ZERO;
        let _ = inj.step(now, &mut r);
        now += 1;
        let _ = inj.step(now, &mut r);
        // FIFO full (depth 2): stall forever, committed.
        for _ in 0..100 {
            now += 1;
            let out = inj.step(now, &mut r);
            assert_eq!(out.kill, None);
        }
        assert_eq!(inj.state(), InjectorState::Sending);
    }

    #[test]
    fn backward_kill_requeues_vulnerable_message() {
        let mut inj = injector(ProtocolKind::Fcr, 16);
        let mut r = router();
        inj.enqueue(message(2, 2));
        let mut now = Cycle::ZERO;
        let _ = inj.step(now, &mut r);
        now += 1;
        let out = inj.step(now, &mut r);
        assert!(out.finished_injection);
        assert_eq!(inj.vulnerable_len(), 1);
        // A fault notification for attempt 0 re-queues it...
        inj.on_killed(now, WormId::new(MessageId::new(1), 0));
        assert_eq!(inj.vulnerable_len(), 0);
        assert_eq!(inj.queue_len(), 1);
        // ...and the retry uses attempt 1. Drain the FIFO first.
        let p = r.inject_port(0);
        let w0 = WormId::new(MessageId::new(1), 0);
        let _ = r.flush_worm(p, cr_sim::VcId::new(0), w0);
        now += 1;
        let out = inj.step(now, &mut r);
        assert!(out.injected_flit);
        assert_eq!(inj.current_worm().unwrap().attempt, 1);
    }

    #[test]
    fn stale_backward_kill_is_ignored() {
        let mut inj = injector(ProtocolKind::Fcr, 16);
        let mut r = router();
        inj.enqueue(message(2, 2));
        let mut now = Cycle::ZERO;
        let _ = inj.step(now, &mut r);
        now += 1;
        let _ = inj.step(now, &mut r);
        assert_eq!(inj.vulnerable_len(), 1);
        // Notification about a *previous* attempt that no longer
        // matches: ignored.
        inj.on_killed(now, WormId::new(MessageId::new(1), 7));
        assert_eq!(inj.vulnerable_len(), 1);
        assert_eq!(inj.queue_len(), 0);
    }

    #[test]
    fn delivery_confirmation_clears_vulnerability() {
        let mut inj = injector(ProtocolKind::Fcr, 16);
        let mut r = router();
        inj.enqueue(message(2, 2));
        let mut now = Cycle::ZERO;
        let _ = inj.step(now, &mut r);
        now += 1;
        let _ = inj.step(now, &mut r);
        inj.on_delivered(MessageId::new(1));
        assert!(inj.is_drained());
    }

    #[test]
    fn delivery_racing_a_kill_cancels_retransmission() {
        let mut inj = injector(ProtocolKind::Cr, 2);
        let mut r = router();
        inj.enqueue(message(8, 10));
        let mut now = Cycle::ZERO;
        let mut worm = None;
        for _ in 0..20 {
            let out = inj.step(now, &mut r);
            if let Some(w) = out.kill {
                worm = Some(w);
                break;
            }
            now += 1;
        }
        inj.on_killed(now, worm.unwrap());
        assert_eq!(inj.state(), InjectorState::Backoff);
        inj.on_delivered(MessageId::new(1));
        assert_eq!(inj.state(), InjectorState::Idle);
    }

    #[test]
    #[should_panic]
    fn wrong_source_rejected() {
        let mut inj = injector(ProtocolKind::Cr, 4);
        inj.enqueue(PendingMessage {
            src: NodeId::new(5),
            ..message(4, 4)
        });
    }
}
