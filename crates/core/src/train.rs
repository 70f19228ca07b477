//! Worm trains (DESIGN.md §10, "Worm trains"): a padded worm whose
//! header has ejected and whose path nothing else shares is a fixed
//! one-flit-per-cycle pipeline — Farhi–Gaujal's tandem of rate-latency
//! servers, Mifdaoui–Ayed's finite-buffer chain — so its state at any
//! later cycle is a closed-form function of its state now.
//!
//! A train is serial orchestrator state beside the churn and token
//! machinery. Forming one records `(worm, path, t0)` and takes the
//! path's routers, links and source injector out of their active sets:
//! no phase visits them, and `fast_forward` may jump to the train's
//! end. *Materialising* it writes the closed form back before anything
//! can observe or touch the path (the causes are [`Cause`]'s variants),
//! and re-arms what it took out. The run loops materialise every train
//! before they return, so nothing outside them ever sees a live one.

use super::{idx32, Network, NONE};
use cr_router::{RouteTarget, WormId};
use cr_sim::{Cycle, PortId, VcId};

/// Fewer cycles than this to the injector's next observable push and
/// the walk and write-back cost more than the cycles they save.
const MIN_LIFE: u32 = 4;

/// Deterministic worm-train counters (DESIGN.md §10): the same for
/// every run of the same inputs under the default driver, zero under
/// the reference driver, and kept out of [`SimReport`](crate::SimReport)
/// so no digest depends on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Trains formed.
    pub formed: u64,
    /// Headers that ejected without their path being a lone steady
    /// stream, so no train formed behind them.
    pub rejected: u64,
    /// Materialised because a flit was pushed onto a link into a train
    /// router.
    pub foreign_flit: u64,
    /// Materialised because a message was about to enter the network
    /// at a path node.
    pub enqueue: u64,
    /// Materialised because a churn event fired.
    pub churn: u64,
    /// Materialised because a teardown reached a path node.
    pub token: u64,
    /// Materialised because a registry prune would have read the
    /// receiver's stale stamp.
    pub prune: u64,
    /// Materialised the cycle before the injector's commit or tail.
    pub end: u64,
    /// Materialised because `run` / `run_until_quiescent` returned.
    pub run_exit: u64,
    /// Cycles trains advanced in closed form, over all trains.
    pub cycles: u64,
    /// Link traversals those cycles stand for.
    pub flit_hops: u64,
}

impl TrainStats {
    /// Materialisations of every cause (every formed train is
    /// materialised exactly once).
    pub fn materialised(&self) -> u64 {
        self.foreign_flit
            + self.enqueue
            + self.churn
            + self.token
            + self.prune
            + self.end
            + self.run_exit
    }
}

/// Why a train is materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Cause {
    ForeignFlit,
    Enqueue,
    Churn,
    Token,
    Prune,
    End,
    RunExit,
}

/// One router of a train's path and the link the worm leaves it by.
#[derive(Debug, Clone, Copy)]
struct Hop {
    node: u32,
    /// The input VC the worm streams out of.
    port: PortId,
    vc: VcId,
    /// Original index of the outgoing link, [`NONE`] at the
    /// destination.
    link: u32,
    /// The lane (output VC) the worm holds on it.
    lane: VcId,
}

#[derive(Debug)]
struct Train {
    worm: WormId,
    /// The last stepped cycle: the path holds its end state.
    t0: Cycle,
    /// The first cycle that must be stepped again: the one in which
    /// the injector pushes its commit or tail flit.
    end: Cycle,
    /// Source injection channel (the source is `hops[0].node`).
    chan: usize,
    /// The injector's next sequence number at `t0`.
    next0: u32,
    /// Sequence number of the first flit to eject after `t0`.
    eject0: u32,
    payload_len: u32,
    /// The receiver's stamp on the worm's assembly at `t0`.
    stamp0: Cycle,
    /// Source first, destination last.
    hops: Vec<Hop>,
}

/// The network's live trains and formation state.
#[derive(Debug)]
pub(super) struct Trains {
    /// Set by the run loops, for the length of one call, when the
    /// driver and configuration allow trains at all.
    pub enabled: bool,
    live: Vec<Train>,
    /// `router_train[node]` = 1 + index in `live` of the train whose
    /// path holds the router, 0 for none.
    router_train: Vec<u32>,
    /// Headers that ejected this cycle, in barrier order: the
    /// formation candidates.
    pub candidates: Vec<(u32, WormId)>,
    pub stats: TrainStats,
}

impl Trains {
    pub fn new(routers: usize) -> Trains {
        Trains {
            enabled: false,
            live: Vec::new(),
            router_train: vec![0; routers],
            candidates: Vec::new(),
            stats: TrainStats::default(),
        }
    }

    /// Whether any train is live — the one branch the hooks cost when
    /// none is.
    #[inline]
    pub fn any(&self) -> bool {
        !self.live.is_empty()
    }

    /// The train holding router `node`, if any.
    #[inline]
    fn at(&self, node: usize) -> Option<usize> {
        (self.router_train[node] as usize).checked_sub(1)
    }

    /// Whether a live train's path holds router `node`.
    pub fn holds(&self, node: usize) -> bool {
        self.router_train[node] != 0
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
}

/// Flits with a sequence number in `from..from + d` that are padding.
fn pads(from: u32, d: u32, payload_len: u32) -> u32 {
    (from + d).saturating_sub(from.max(payload_len))
}

impl Network {
    /// Run-loop entry: trains may form while this call runs unless the
    /// reference driver is selected (it is the oracle), a Bernoulli
    /// source could enqueue at a path node on any cycle, transient
    /// faults draw on every arrival, or path-wide detection polls every
    /// stalled VC.
    pub(super) fn trains_begin_run(&mut self) {
        self.trains.enabled = !self.reference_stepper
            && self.sources.is_empty()
            && self.faults.transient_rate() == 0.0
            && self.cfg.path_wide_threshold.is_none();
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

    /// Top of the cycle, before churn: trains that end now, every train
    /// when churn fires, and trains with a message about to enter at a
    /// path node are written back as of the end of the previous cycle,
    /// so the whole cycle steps them normally.
    pub(super) fn trains_at_cycle_start(&mut self, now: Cycle) {
        let upto = Cycle::new(now.as_u64() - 1);
        let churn = self.faults.next_churn_at().is_some_and(|at| at <= now);
        for i in (0..self.trains.live.len()).rev() {
            if churn {
                self.materialise(i, upto, None, Cause::Churn);
            } else if self.trains.live[i].end <= now {
                self.materialise(i, upto, None, Cause::End);
            }
        }
        for k in 0..self.scheduled.len() {
            if !self.trains.any() || self.scheduled[k].at > now {
                break;
            }
            if let Some(i) = self.trains.at(self.scheduled[k].src.index()) {
                self.materialise(i, upto, None, Cause::Enqueue);
            }
        }
    }

    /// At the route + traverse barrier, before a flit is pushed onto
    /// original link `li`: if the link leads into a train router, the
    /// train is written back as of the end of this cycle.
    pub(super) fn train_before_push(&mut self, li: usize, now: Cycle) {
        if let Some(i) = self.trains.at(self.tables.link_head[li].0) {
            self.materialise(i, now, None, Cause::ForeignFlit);
        }
    }

    /// Before teardown (phases 1–3) touches router `node` or its
    /// injectors: the train is written back as of the end of the
    /// previous cycle and its arrivals of this cycle replayed, which
    /// is where this cycle's arrivals phase would have left it.
    pub(super) fn train_before_teardown(&mut self, node: usize, now: Cycle) {
        if let Some(i) = self.trains.at(node) {
            self.materialise(i, Cycle::new(now.as_u64() - 1), Some(now), Cause::Token);
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
                Some(train) => self.install(train),
                None => self.trains.stats.rejected += 1,
            }
        }
        candidates.clear();
        self.trains.candidates = candidates;
    }

    /// The train `worm` would form at the end of cycle `now`, having
    /// just ejected its header at `dst`, if its whole path — source
    /// injector, injection VC, every router's input VC and granted
    /// output VC, every link lane, the ejection port — is a lone
    /// stream that moves one flit per cycle: each queue holding a
    /// consecutive run of the worm's flits that continues the run
    /// behind it, every lane exactly one channel latency of flits due
    /// on consecutive cycles, every VC with room, every output with a
    /// credit, and no other flit, allocation, streak, unrouted input,
    /// busy lane, inbound flit or stepping injector anywhere on it.
    fn walk_path(&self, now: Cycle, dst: usize, worm: WormId) -> Option<Train> {
        if self.deadlocked || self.killed.contains(worm) {
            return None;
        }
        let (src, chan) = self.source_of(worm.message)?;
        let s = self.injectors[src][chan].stream()?;
        if s.worm != worm || s.stop < s.next + MIN_LIFE {
            return None;
        }
        let latency = self.cfg.channel_latency as usize;
        let chans = self.cfg.inject_channels;
        let mut hops = Vec::new();
        let (mut node, mut port, mut vc) = (src, self.routers[src].inject_port(chan), VcId::new(0));
        let mut from_link = NONE;
        // The queue being checked must end just before this sequence
        // number: the injector's next flit, then each queue's front.
        let mut back = s.next;
        loop {
            if hops.len() > self.routers.len() || self.trains.at(node).is_some() {
                return None;
            }
            let stepping =
                |c: usize| (node, c) != (src, chan) && self.injectors[node][c].has_step_work();
            if (0..chans).any(stepping) {
                return None;
            }
            let router = &self.routers[node];
            for q in 0..router.config().num_node_ports {
                let feeding = self.tables.in_upstream(node, PortId::from_index(q));
                let li = feeding.and_then(|(up, out)| self.tables.out_link(up, out));
                if let Some(li) = li.filter(|&li| idx32(li) != from_link) {
                    if self.links[self.link_perm[li] as usize].occupied() > 0 {
                        return None;
                    }
                }
            }
            let stream = router.lone_stream(port, vc, worm)?;
            if !stream.seqs.is_empty() {
                if stream.seqs.end != back {
                    return None;
                }
                back = stream.seqs.start;
            }
            let RouteTarget::Link {
                port: out,
                vc: lane,
            } = stream.target
            else {
                if node != dst {
                    return None;
                }
                let last = Hop {
                    node: idx32(node),
                    port,
                    vc,
                    link: NONE,
                    lane: VcId::new(0),
                };
                hops.push(last);
                break;
            };
            let li = self.tables.out_link(node, out)?;
            if self.faults.is_dead(self.tables.link_ids[li]) {
                return None;
            }
            let link = &self.links[self.link_perm[li] as usize];
            let seqs = link.lone_lane(lane.index(), worm, now + 1, latency)?;
            if seqs.end != back {
                return None;
            }
            back = seqs.start;
            hops.push(Hop {
                node: idx32(node),
                port,
                vc,
                link: idx32(li),
                lane,
            });
            (node, port) = self.tables.link_head[li];
            vc = lane;
            from_link = idx32(li);
        }
        Some(Train {
            worm,
            t0: now,
            end: now + 1 + u64::from(s.stop - s.next),
            chan,
            next0: s.next,
            eject0: back,
            payload_len: s.payload_len,
            stamp0: self.receivers[dst].assembly_stamp(worm)?,
            hops,
        })
    }

    /// Takes a formed train's path out of the active sets.
    fn install(&mut self, train: Train) {
        let id = idx32(self.trains.live.len() + 1);
        for hop in &train.hops {
            let node = hop.node as usize;
            self.trains.router_train[node] = id;
            self.router_sets[self.node_shard[node] as usize].remove(hop.node);
            if hop.link != NONE {
                let pi = self.link_perm[hop.link as usize];
                self.link_sets[self.link_shard[pi as usize] as usize].remove(pi);
            }
        }
        let src = train.hops[0].node as usize;
        let injector = idx32(src * self.cfg.inject_channels + train.chan);
        self.injector_sets[self.node_shard[src] as usize].remove(injector);
        self.trains.stats.formed += 1;
        self.trains.live.push(train);
    }

    /// Writes live train `i` back as of the end of cycle `upto`, then
    /// re-arms its path. With `replay = Some(now)` (`now = upto + 1`)
    /// its links' arrivals of cycle `now` run too.
    ///
    /// Every cycle of the `d = upto - t0` the train skipped, each
    /// queue on the path popped one flit and took the one behind it,
    /// so every queue holds the same number of flits in the same
    /// slots, each `d` places further down the worm, and every lane's
    /// arrival stamps are `d` later. Each router forwarded `d` flits,
    /// each link carried `d` (counted toward utilisation on the
    /// skipped cycles past warmup), the injector pushed sequence
    /// numbers `next0..next0 + d` and the receiver took
    /// `eject0..eject0 + d`.
    fn materialise(&mut self, i: usize, upto: Cycle, replay: Option<Cycle>, cause: Cause) {
        let train = self.trains.live.swap_remove(i);
        if let Some(moved) = self.trains.live.get(i) {
            for hop in &moved.hops {
                self.trains.router_train[hop.node as usize] = idx32(i + 1);
            }
        }
        let steps = upto - train.t0;
        // A train lasts fewer cycles than its worm has flits.
        let d = steps as u32;
        // A path runs from its source to its destination.
        let src = train.hops[0].node as usize;
        let dst = train.hops[train.hops.len() - 1].node as usize;
        let injected_pads = pads(train.next0, d, train.payload_len);
        self.injectors[src][train.chan].advance_stream(d);
        self.counters.pad_flits_injected += u64::from(injected_pads);
        self.counters.payload_flits_injected += u64::from(d - injected_pads);
        let counted =
            (upto.as_u64() + 1).saturating_sub((train.t0.as_u64() + 1).max(self.cfg.warmup));
        for hop in &train.hops {
            let node = hop.node as usize;
            self.trains.router_train[node] = 0;
            self.routers[node].advance_stream(hop.port, hop.vc, d, upto);
            if hop.link != NONE {
                let pi = self.link_perm[hop.link as usize] as usize;
                self.links[pi].advance_lane(hop.lane.index(), d);
                self.link_flits[hop.link as usize] += counted;
            }
        }
        let ejected_pads = pads(train.eject0, d, train.payload_len);
        self.receivers[dst].advance_stream(train.worm, d, ejected_pads, upto);
        if d > 0 {
            self.last_progress = self.last_progress.max(upto);
        }

        let stats = &mut self.trains.stats;
        *match cause {
            Cause::ForeignFlit => &mut stats.foreign_flit,
            Cause::Enqueue => &mut stats.enqueue,
            Cause::Churn => &mut stats.churn,
            Cause::Token => &mut stats.token,
            Cause::Prune => &mut stats.prune,
            Cause::End => &mut stats.end,
            Cause::RunExit => &mut stats.run_exit,
        } += 1;
        stats.cycles += steps;
        stats.flit_hops += steps * (train.hops.len() as u64 - 1);

        // Re-arm exactly what the kernels would have left armed.
        self.arm_injector(src, train.chan);
        for hop in train.hops.iter().filter(|h| h.link != NONE) {
            let pi = self.link_perm[hop.link as usize];
            match replay {
                Some(now) => self.visit_link_ordered(now, pi),
                None => {
                    self.link_sets[self.link_shard[pi as usize] as usize].insert(pi);
                }
            }
        }
        for hop in &train.hops {
            if self.routers[hop.node as usize].total_occupancy() > 0 {
                self.arm_router(hop.node as usize);
            }
        }
    }

    /// Deterministic worm-train counters (DESIGN.md §10).
    pub fn train_stats(&self) -> TrainStats {
        self.trains.stats
    }
}
