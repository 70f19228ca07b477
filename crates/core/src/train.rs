//! Worm trains (DESIGN.md §10, "Worm trains"): once a padded worm's
//! header has ejected, a worm on channels nothing else shares is a
//! fixed one-flit-per-cycle pipeline — Farhi–Gaujal's tandem of
//! rate-latency servers, Mifdaoui–Ayed's finite-buffer chain — so its
//! state at any later cycle is a closed-form function of its state now,
//! whatever crosses its routers on other ports. That holds through the
//! commit and tail pushes and through the drain after them: once the
//! tail is in, every queue still moves one place a cycle and the hops
//! the tail has left are empty and released, one more each cycle, until
//! the tail ejects.
//!
//! A train is serial orchestrator state beside the churn and token
//! machinery. Forming one records `(worm, path, t0)` and *holds* the
//! worm's channels: its source injector, each hop's input VC and the
//! output VC or ejection port it was granted (`Router::hold_stream`),
//! and each link. No phase steps a held channel. The rest of every
//! router keeps stepping, and a router, link or injector left with
//! nothing else to do leaves its active set, so `fast_forward` may jump
//! to the train's end: the cycle the tail ejects. Trains form only when
//! the routing function has one VC: a held output VC is then its
//! physical channel's only VC, owned by the train's worm, so no header
//! can share a held channel and no other flit can be pushed onto a held
//! link.
//!
//! *Materialising* a train writes the closed form back before anything
//! can observe or touch what it holds (the causes are [`Cause`]'s
//! variants) — a hop the tail has left is written back empty and
//! released, exactly as the tail's traversal left it — and re-arms what
//! it took out. The run loops materialise every train before they
//! return, so nothing outside them ever sees a live one.

use super::{idx32, Network, NONE};
use crate::receiver::DeliveredMessage;
use cr_router::flit::Shift;
use cr_router::{NoStream, PortKind, RouteTarget, WormId};
use cr_sim::{Cycle, PortId, VcId};
use std::collections::BTreeMap;

/// Fewer cycles than this to the train's end and the walk and
/// write-back cost more than the cycles they save.
const MIN_LIFE: u64 = 4;

/// Deterministic worm-train counters (DESIGN.md §10): the same for
/// every run of the same inputs under the default driver, zero under
/// the reference driver, and kept out of [`SimReport`](crate::SimReport)
/// so no digest depends on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Trains formed.
    pub formed: u64,
    /// Headers that ejected while a hop of their worm was not moving
    /// one flit per cycle: a full VC, an output with no credit, a dead
    /// link or an open stall streak, or a queue or lane not holding the
    /// worm's next run on time.
    pub rejected_not_streaming: u64,
    /// Headers that ejected while another worm or train shared a
    /// channel of their path.
    pub rejected_shared: u64,
    /// Headers whose train would have ended within four cycles.
    pub rejected_short: u64,
    /// Headers whose source injector was not streaming the worm:
    /// stalled last cycle, backing off, or already retired.
    pub rejected_injector: u64,
    /// Materialised because a churn event fired.
    pub churn: u64,
    /// Materialised because a teardown reached a channel the train
    /// holds.
    pub token: u64,
    /// Materialised because a registry prune would have read the
    /// receiver's stale stamp.
    pub prune: u64,
    /// Materialised at the train's end: the cycle its tail ejects or,
    /// with the event trace on, its injector's commit push.
    pub end: u64,
    /// Materialised before the route + traverse stage because a header
    /// waited at a router the worm's tail had left, where it could win
    /// the output the tail released.
    pub header: u64,
    /// Materialised because a message was queued at the train's
    /// injector, which picks it up the cycle after its tail goes in.
    pub enqueue: u64,
    /// Materialised because `run` / `run_until_quiescent` returned.
    pub run_exit: u64,
    /// Trains written back past the cycle their injector pushed the
    /// tail: their drain, or part of it, ran in closed form.
    pub drained: u64,
    /// Cycles trains advanced in closed form, over all trains.
    pub cycles: u64,
    /// Link traversals those cycles stand for.
    pub flit_hops: u64,
}

impl TrainStats {
    /// Headers that ejected without a train forming behind them, over
    /// every reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_not_streaming
            + self.rejected_shared
            + self.rejected_short
            + self.rejected_injector
    }

    /// Materialisations of every cause (every formed train is
    /// materialised exactly once).
    pub fn materialised(&self) -> u64 {
        self.churn + self.token + self.prune + self.end + self.header + self.enqueue + self.run_exit
    }
}

/// Why a train is materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Cause {
    Churn,
    Token,
    Prune,
    End,
    Header,
    Enqueue,
    RunExit,
}

/// Why no train formed behind an ejected header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reject {
    NotStreaming,
    Shared,
    Short,
    Injector,
}

impl From<NoStream> for Reject {
    fn from(why: NoStream) -> Reject {
        match why {
            NoStream::NotStreaming => Reject::NotStreaming,
            NoStream::Shared => Reject::Shared,
        }
    }
}

/// Every channel of a one-VC fabric is VC 0: input VCs, output VCs
/// and link lanes alike.
const VC0: VcId = VcId::new(0);

/// One router of a train's path and the link the worm leaves it by.
#[derive(Debug, Clone, Copy)]
struct Hop {
    node: u32,
    /// The input port the worm streams in by (its VC is [`VC0`]).
    port: PortId,
    /// Index of the outgoing link, [`NONE`] at the
    /// destination.
    link: u32,
    /// Sequence number of the first flit its input VC held at `t0` (the
    /// next one in, if it held none).
    from: u32,
}

#[derive(Debug)]
struct Train {
    worm: WormId,
    /// The last stepped cycle: the path holds its end state.
    t0: Cycle,
    /// The first cycle that must be stepped again: the one in which
    /// the tail ejects, the injector's commit push when the event trace
    /// reports it, or the one after the tail push when a message waits
    /// behind it.
    end: Cycle,
    /// What materialises the train at `end`.
    end_cause: Cause,
    /// Source injection channel (the source is `hops[0].node`).
    chan: usize,
    /// The injector's next sequence number at `t0`.
    next0: u32,
    /// Sequence number of the first flit to eject after `t0`.
    eject0: u32,
    payload_len: u32,
    /// Sequence number of the worm's tail flit.
    tail: u32,
    /// The receiver's stamp on the worm's assembly at `t0`.
    stamp0: Cycle,
    /// Source first, destination last.
    hops: Vec<Hop>,
}

impl Train {
    /// The cycle the injector pushes the tail.
    fn tail_pushed(&self) -> Cycle {
        self.t0 + 1 + u64::from(self.tail - self.next0)
    }

    /// The cycle the tail leaves `hop`'s input VC, releasing it and its
    /// output.
    fn tail_left(&self, hop: &Hop) -> Cycle {
        self.t0 + u64::from(self.tail + 1 - hop.from)
    }
}

/// The network's live trains and formation state.
#[derive(Debug)]
pub(super) struct Trains {
    /// Set by the run loops, for the length of one call, when the
    /// driver and configuration allow trains at all.
    pub enabled: bool,
    live: Vec<Train>,
    /// `link_train[li]` = 1 + index in `live` of the train holding
    /// link `li`, 0 for none.
    link_train: Vec<u32>,
    /// The same per injector (`node * inject_channels + channel`): the
    /// train streaming from it.
    injector_train: Vec<u32>,
    /// Headers that ejected this cycle, in traversal order: the
    /// formation candidates.
    pub candidates: Vec<(u32, WormId)>,
    pub stats: TrainStats,
    /// Debug builds only (empty otherwise): the tail-delivery cycle the
    /// closed form predicts for each worm a train carried, until the
    /// worm delivers, is killed or churn fires.
    tails: BTreeMap<WormId, Cycle>,
}

impl Trains {
    pub fn new(links: usize, injectors: usize) -> Trains {
        Trains {
            enabled: false,
            live: Vec::new(),
            link_train: vec![0; links],
            injector_train: vec![0; injectors],
            candidates: Vec::new(),
            stats: TrainStats::default(),
            tails: BTreeMap::new(),
        }
    }

    /// Whether any train is live — the one branch the hooks cost when
    /// none is.
    #[inline]
    pub fn any(&self) -> bool {
        !self.live.is_empty()
    }

    /// The train holding link `li`, if any.
    #[inline]
    pub fn on_link(&self, li: usize) -> Option<usize> {
        (self.link_train[li] as usize).checked_sub(1)
    }

    /// The train holding injector `id`, if any.
    #[inline]
    pub fn on_injector(&self, id: usize) -> Option<usize> {
        (self.injector_train[id] as usize).checked_sub(1)
    }

    /// The earliest cycle a live train must be stepped again.
    pub fn next_end(&self) -> Option<Cycle> {
        self.live.iter().map(|t| t.end).min()
    }

    /// Whether a prune with this `horizon` would misread a live
    /// train's receiver stamp.
    pub fn misled_by_prune(&self, horizon: Cycle) -> bool {
        self.live.iter().any(|t| t.stamp0 < horizon)
    }

    /// Points every link and the injector live train `i` holds at `id`
    /// (`i + 1`, or 0 to let go of them); `chans` is the injection
    /// channels per node.
    fn mark(&mut self, i: usize, id: u32, chans: usize) {
        let train = &self.live[i];
        self.injector_train[train.hops[0].node as usize * chans + train.chan] = id;
        for hop in train.hops.iter().filter(|h| h.link != NONE) {
            self.link_train[hop.link as usize] = id;
        }
    }

    /// Checks a delivered message against the tail-delivery cycle its
    /// train predicted, if it has one (debug builds).
    pub fn check_delivery(&mut self, m: &DeliveredMessage) {
        if self.tails.is_empty() {
            return;
        }
        let worm = WormId::new(m.id, m.attempts - 1);
        if let Some(at) = self.tails.remove(&worm) {
            debug_assert_eq!(
                m.delivered, at,
                "the closed form mispredicted {worm}'s tail delivery"
            );
        }
    }

    /// A kill voids `worm`'s prediction.
    pub fn forget_tail(&mut self, worm: WormId) {
        if !self.tails.is_empty() {
            self.tails.remove(&worm);
        }
    }

    /// A fault-model change voids every prediction.
    pub fn forget_tails(&mut self) {
        self.tails.clear();
    }
}

/// Flits with a sequence number in `from..from + d` that are padding.
fn pads(from: u32, d: u32, payload_len: u32) -> u32 {
    (from + d).saturating_sub(from.max(payload_len))
}

impl Network {
    /// Run-loop entry: trains may form while this call runs unless the
    /// reference driver is selected (it is the oracle), transient
    /// faults draw on every arrival, path-wide detection polls every
    /// stalled VC, or the routing function has more than one VC (a
    /// header could then win a sibling VC of a held output and share
    /// its physical channel).
    pub(super) fn trains_begin_run(&mut self) {
        self.trains.enabled = !self.reference_stepper
            && self.faults.transient_rate() == 0.0
            && self.cfg.path_wide_threshold.is_none()
            && self.tables.routing.num_vcs() == 1;
    }

    /// Run-loop exit: every train is written back as of the end of the
    /// last cycle stepped or skipped.
    pub(super) fn trains_end_run(&mut self) {
        self.trains.enabled = false;
        self.trains.candidates.clear();
        let upto = Cycle::new(self.now.as_u64().saturating_sub(1));
        while let Some(i) = self.trains.live.len().checked_sub(1) {
            self.materialise(i, upto, None, Cause::RunExit);
        }
    }

    /// Top of the cycle, before churn: trains that end now, and every
    /// train when churn fires, are written back as of the end of the
    /// previous cycle, so the whole cycle steps them normally.
    pub(super) fn trains_at_cycle_start(&mut self, now: Cycle) {
        let upto = Cycle::new(now.as_u64() - 1);
        let churn = self.faults.next_churn_at().is_some_and(|at| at <= now);
        for i in (0..self.trains.live.len()).rev() {
            if churn {
                self.materialise(i, upto, None, Cause::Churn);
            } else if self.trains.live[i].end <= now {
                let cause = self.trains.live[i].end_cause;
                self.materialise(i, upto, None, cause);
            }
        }
    }

    /// Before teardown (phases 1–3) touches input `port` of router
    /// `node` — flushing one of its VCs, purging the link feeding it,
    /// returning credits upstream — or, for an injection port, its
    /// injector: the train holding that channel is written back as of
    /// the end of the previous cycle and its arrivals of this cycle
    /// replayed, which is where this cycle's arrivals phase would have
    /// left it.
    pub(super) fn train_before_teardown(&mut self, node: usize, port: PortId, now: Cycle) {
        let router = &self.routers[node];
        if router.port_kind(port) == PortKind::Inject {
            let channel = port.index() - router.config().num_node_ports;
            return self.train_before_requeue(node, channel, now);
        }
        let held = self.tables.in_link(node, port);
        if let Some(i) = held.and_then(|li| self.trains.on_link(li)) {
            self.materialise(i, Cycle::new(now.as_u64() - 1), Some(now), Cause::Token);
        }
    }

    /// [`Network::train_before_teardown`] for a backward kill reaching
    /// injector `(node, channel)`.
    pub(super) fn train_before_requeue(&mut self, node: usize, channel: usize, now: Cycle) {
        let held = self
            .trains
            .on_injector(node * self.cfg.inject_channels + channel);
        if let Some(i) = held {
            self.materialise(i, Cycle::new(now.as_u64() - 1), Some(now), Cause::Token);
        }
    }

    /// Before a message is queued at the injector live train `i`
    /// streams from, in cycle `now`: the injector picks it up the cycle
    /// after it pushes the tail. If that is still to come, the train
    /// ends there; if it is this cycle, the train is written back as of
    /// the end of the previous cycle and its arrivals of this cycle
    /// replayed, so the injection phase steps the injector.
    pub(super) fn train_before_enqueue(&mut self, i: usize, now: Cycle) {
        let pickup = self.trains.live[i].tail_pushed() + 1;
        if now >= pickup {
            self.materialise(i, Cycle::new(now.as_u64() - 1), Some(now), Cause::Enqueue);
            return;
        }
        let train = &mut self.trains.live[i];
        if pickup < train.end {
            train.end = pickup;
            train.end_cause = Cause::Enqueue;
        }
    }

    /// Before the route + traverse phase of cycle `now`: a train whose
    /// tail has left a router where an unrouted input now waits is
    /// written back as of the end of the previous cycle, its arrivals of
    /// this cycle replayed, because a header there may win the output
    /// the tail released. A router outside the active set has no
    /// unrouted input.
    pub(super) fn trains_before_route(&mut self, now: Cycle) {
        for i in (0..self.trains.live.len()).rev() {
            let train = &self.trains.live[i];
            let waiting = train
                .hops
                .iter()
                .take_while(|hop| train.tail_left(hop) < now)
                .any(|hop| {
                    self.router_set.contains(hop.node)
                        && self.routers[hop.node as usize].unrouted_inputs() > 0
                });
            if waiting {
                self.materialise(i, Cycle::new(now.as_u64() - 1), Some(now), Cause::Header);
            }
        }
    }

    /// Before a registry prune at cycle `at` with receiver horizon
    /// `horizon`: trains whose receiver stamp is older than the horizon
    /// are written back as of the end of `at`, so the prune reads the
    /// stamp the stepped worm would have left.
    pub(super) fn trains_before_prune(&mut self, at: Cycle, horizon: Cycle) {
        for i in (0..self.trains.live.len()).rev() {
            if self.trains.live[i].stamp0 < horizon {
                self.materialise(i, at, None, Cause::Prune);
            }
        }
    }

    /// End of cycle `now`: tries to form a train behind every header
    /// that ejected this cycle.
    pub(super) fn form_trains(&mut self, now: Cycle) {
        let mut candidates = std::mem::take(&mut self.trains.candidates);
        for &(dst, worm) in &candidates {
            match self.walk_path(now, dst as usize, worm) {
                Ok(train) => self.install(train),
                Err(why) => {
                    let stats = &mut self.trains.stats;
                    *match why {
                        Reject::NotStreaming => &mut stats.rejected_not_streaming,
                        Reject::Shared => &mut stats.rejected_shared,
                        Reject::Short => &mut stats.rejected_short,
                        Reject::Injector => &mut stats.rejected_injector,
                    } += 1;
                }
            }
        }
        candidates.clear();
        self.trains.candidates = candidates;
    }

    /// The train `worm` would form at the end of cycle `now`, having
    /// just ejected its header at `dst`, if each of its channels —
    /// source injector, injection VC, every router's input VC and
    /// granted output VC or ejection port, every link lane — is a
    /// stream of its own that moves one flit per cycle: each queue
    /// holding a consecutive run of the worm's flits that continues the
    /// run behind it, every lane exactly one channel latency of flits
    /// due on consecutive cycles, every VC with room, every output with
    /// a credit and no open streak, no other worm on any channel, and
    /// the injector pushing. Every channel is [`VC0`]: trains form on
    /// one-VC fabrics only.
    fn walk_path(&self, now: Cycle, dst: usize, worm: WormId) -> Result<Train, Reject> {
        if self.deadlocked || self.killed.contains(worm) {
            return Err(Reject::NotStreaming);
        }
        let (src, chan) = self.source_of(worm.message).ok_or(Reject::Injector)?;
        let s = self.injectors[src][chan].stream();
        let s = s.filter(|s| s.worm == worm).ok_or(Reject::Injector)?;
        let latency = self.cfg.channel_latency as usize;
        let mut hops = Vec::new();
        let (mut node, mut port) = (src, self.routers[src].inject_port(chan));
        // The queue being checked must end just before this sequence
        // number: the injector's next flit, then each queue's front.
        let mut back = s.next;
        loop {
            if hops.len() > self.routers.len() {
                return Err(Reject::NotStreaming);
            }
            let router = &self.routers[node];
            let stream = router.channel_stream(port, VC0, worm)?;
            if !stream.seqs.is_empty() {
                if stream.seqs.end != back {
                    return Err(Reject::NotStreaming);
                }
                back = stream.seqs.start;
            }
            let mut hop = Hop {
                node: idx32(node),
                port,
                link: NONE,
                from: back,
            };
            let RouteTarget::Link { port: out, .. } = stream.target else {
                if node != dst {
                    return Err(Reject::NotStreaming);
                }
                hops.push(hop);
                break;
            };
            let li = self
                .tables
                .out_link(node, out)
                .ok_or(Reject::NotStreaming)?;
            if self.faults.is_dead(self.tables.link_ids[li]) {
                return Err(Reject::NotStreaming);
            }
            let seqs = self.links[li].lone_lane(VC0.index(), worm, now + 1, latency);
            let seqs = seqs.filter(|seqs| seqs.end == back);
            back = seqs.ok_or(Reject::NotStreaming)?.start;
            hop.link = idx32(li);
            hops.push(hop);
            (node, port) = self.tables.link_head[li];
        }
        // Every flit from `back` on ejects one cycle after the one
        // ahead of it, so the tail ejects at `end`.
        let mut end = now + 1 + u64::from(s.tail - back);
        let mut end_cause = Cause::End;
        if let Some(commit) = s.commit.filter(|_| self.trace.enabled()) {
            // Its `Commit` event keeps its place in the trace.
            end = now + 1 + u64::from(commit - s.next);
        }
        let pickup = now + 2 + u64::from(s.tail - s.next);
        if self.injectors[src][chan].queue_len() > 0 && pickup < end {
            (end, end_cause) = (pickup, Cause::Enqueue);
        }
        if end - now <= MIN_LIFE {
            return Err(Reject::Short);
        }
        Ok(Train {
            worm,
            t0: now,
            end,
            end_cause,
            chan,
            next0: s.next,
            eject0: back,
            payload_len: s.payload_len,
            tail: s.tail,
            stamp0: self.receivers[dst]
                .assembly_stamp(worm)
                .ok_or(Reject::NotStreaming)?,
            hops,
        })
    }

    /// Holds a formed train's channels and takes what they leave idle
    /// out of the active sets.
    fn install(&mut self, train: Train) {
        for hop in &train.hops {
            let node = hop.node as usize;
            let router = &mut self.routers[node];
            router.hold_stream(hop.port, VC0);
            if !router.needs_visit() {
                self.router_set.remove(hop.node);
            }
            if hop.link != NONE {
                self.link_set.remove(hop.link);
            }
        }
        let src = train.hops[0].node as usize;
        let injector = idx32(src * self.cfg.inject_channels + train.chan);
        self.injector_set.remove(injector);
        let i = self.trains.live.len();
        self.trains.live.push(train);
        self.trains.mark(i, idx32(i + 1), self.cfg.inject_channels);
        self.trains.stats.formed += 1;
    }

    /// Writes live train `i` back as of the end of cycle `upto`, then
    /// releases and re-arms its channels. With `replay = Some(now)`
    /// (`now = upto + 1`) its links' arrivals of cycle `now` run too.
    ///
    /// Every cycle of the `d = upto - t0` the train skipped, each
    /// queue on the path popped one flit and took the one behind it
    /// until the tail had passed (see [`Shift`]): every queue holds the
    /// same slots, each flit `d` places further down the worm and every
    /// arrival stamp `d` later, minus the flits past the tail, and a hop
    /// the tail has left is empty and released. Each router forwarded,
    /// and each link carried, what its queue popped (counted toward
    /// utilisation on the skipped cycles past warmup); an output got
    /// back a credit for every flit that left its lane and the VC below
    /// for good; the injector pushed sequence numbers from `next0` up to
    /// at most the tail, retiring the worm if the tail went in, and the
    /// receiver took `eject0..eject0 + d`.
    fn materialise(&mut self, i: usize, upto: Cycle, replay: Option<Cycle>, cause: Cause) {
        let chans = self.cfg.inject_channels;
        self.trains.mark(i, 0, chans);
        let train = self.trains.live.swap_remove(i);
        if i < self.trains.live.len() {
            self.trains.mark(i, idx32(i + 1), chans);
        }
        let steps = upto - train.t0;
        // cr-lint: allow(integer-narrowing, reason = "steps < end - t0 <= 1 + tail - eject0, a difference of two u32 sequence numbers")
        let d = steps as u32;
        let tail = train.tail;
        // A path runs from its source to its destination.
        let src = train.hops[0].node as usize;
        let dst = train.hops[train.hops.len() - 1].node as usize;
        let pushed = d.min(tail + 1 - train.next0);
        let injected_pads = pads(train.next0, pushed, train.payload_len);
        self.injectors[src][train.chan].advance_stream(pushed);
        self.counters.pad_flits_injected += u64::from(injected_pads);
        self.counters.payload_flits_injected += u64::from(pushed - injected_pads);
        // Destination first: a hop's output is credited for the flits
        // gone from its lane and from the VC below it.
        let (t1, warmup) = (train.t0.as_u64() + 1, self.cfg.warmup);
        let mut below = 0;
        let mut carried = 0;
        for hop in train.hops.iter().rev() {
            let shift = Shift {
                from: hop.from,
                d,
                tail,
            };
            let mut credits = below;
            if hop.link != NONE {
                let li = hop.link as usize;
                credits += idx32(self.links[li].advance_lane(VC0.index(), d, tail));
                // The lane took what the VC popped, one flit a cycle.
                let popped = u64::from(shift.popped());
                self.link_flits[li] += (t1 + popped).saturating_sub(t1.max(warmup));
                carried += popped;
            }
            let router = &mut self.routers[hop.node as usize];
            below = router.release_stream(hop.port, VC0, train.t0, shift, credits);
        }
        self.live_flits -= (d - pushed) as usize;
        let ejected_pads = pads(train.eject0, d, train.payload_len);
        self.receivers[dst].advance_stream(train.worm, d, ejected_pads, upto);
        if d > 0 {
            self.last_progress = self.last_progress.max(upto);
        }
        if cfg!(debug_assertions) && cause != Cause::Churn {
            // On channels nothing can share, every flit from `eject0`
            // on ejects one cycle after the one ahead of it.
            let tail_at = train.t0 + 1 + u64::from(tail - train.eject0);
            self.trains.tails.insert(train.worm, tail_at);
        }

        let stats = &mut self.trains.stats;
        *match cause {
            Cause::Churn => &mut stats.churn,
            Cause::Token => &mut stats.token,
            Cause::Prune => &mut stats.prune,
            Cause::End => &mut stats.end,
            Cause::Header => &mut stats.header,
            Cause::Enqueue => &mut stats.enqueue,
            Cause::RunExit => &mut stats.run_exit,
        } += 1;
        stats.drained += u64::from(upto > train.tail_pushed());
        stats.cycles += steps;
        stats.flit_hops += carried;

        // Re-arm exactly what the phases would have left armed.
        self.arm_injector(src, train.chan);
        for hop in train.hops.iter().filter(|h| h.link != NONE) {
            match replay {
                Some(now) => self.visit_link(now, hop.link),
                None if self.links[hop.link as usize].occupied() > 0 => {
                    self.link_set.insert(hop.link);
                }
                None => {}
            }
        }
        for hop in &train.hops {
            if self.routers[hop.node as usize].needs_visit() {
                self.arm_router(hop.node as usize);
            }
        }
    }

    /// Deterministic worm-train counters (DESIGN.md §10).
    pub fn train_stats(&self) -> TrainStats {
        self.trains.stats
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetworkBuilder, ProtocolKind, RoutingKind};
    use cr_sim::{Cycle, NodeId, PortId};
    use cr_topology::{KAryNCube, Topology};
    use cr_traffic::{Trace, TraceEvent};

    /// The route + traverse phase re-arms a router only for flits
    /// outside held streams: a router on a train's path, armed by a
    /// worm crossing it on other ports, leaves its active set once that
    /// worm has gone, although the train's flits are still buffered in
    /// it.
    #[test]
    fn a_router_whose_only_flits_are_held_leaves_its_active_set() {
        let grid = KAryNCube::torus(8, 2);
        let at = |x: usize, y: usize| grid.node_at(&[x, y]);
        let event = |at: u64, src: NodeId, dst: NodeId, length: u32| TraceEvent {
            at: Cycle::new(at),
            src,
            dst,
            length,
        };
        let mut net = NetworkBuilder::new(grid.clone())
            .routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Baseline)
            .buffer_depth(3)
            .inject_depth(16)
            .warmup(0)
            .build();
        // Every path is the only minimal one: the long worm's along row
        // 0, a short worm ahead of it on its middle hop that holds it
        // up until its buffers behind (1, 0) have filled (the train then
        // forms with flits held there), and the crossing worm down
        // column 1 through (1, 0).
        net.schedule_trace(&Trace::from_events(vec![
            event(0, at(0, 0), at(3, 0), 600),
            event(0, at(1, 0), at(2, 0), 12),
            event(60, at(1, 6), at(1, 1), 8),
        ]));
        let mid = at(1, 0);
        let armed = |net: &crate::Network| net.router_set.contains(mid.as_u32());
        let down = (0..grid.num_ports(mid))
            .map(PortId::from_index)
            .find(|&p| grid.neighbor(mid, p) == Some(at(1, 1)))
            .expect("(1, 0) neighbours (1, 1)");

        // The short worm's train, then the long worm's.
        net.trains_begin_run();
        while net.trains.stats.formed < 2 {
            net.step();
        }
        assert!(net.routers[mid.index()].total_occupancy() > 0);
        assert!(!armed(&net), "the train's routers left their sets");
        while net.counters().messages_delivered < 2 {
            net.step();
        }
        let crossed = net.routers[mid.index()].link_stats()[down.index()].flits_forwarded;
        assert_eq!(crossed, 8, "the crossing worm went through (1, 0)");
        net.step();
        assert!(net.trains.any(), "the train ran on beside the crossing");
        assert!(net.routers[mid.index()].total_occupancy() > 0);
        assert!(!armed(&net), "held flits alone do not keep a router armed");
        net.trains_end_run();
        // The crossing worm ran its drain as a train of its own.
        let stats = net.train_stats();
        assert_eq!((stats.formed, stats.materialised()), (3, 3));
        assert!(armed(&net), "written back, the router is armed again");
    }
}
