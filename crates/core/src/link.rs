//! One link's pipeline: the flits in flight on a channel or parked in
//! its stall-holding latches, and when the earliest of them is due.
//!
//! Everything an arrivals visit reads is in the [`LinkState`] record
//! or one multiply away from it: the lane cursors and the wake sit
//! inline, and all lanes' flits share one block that exists only once
//! the link has carried a flit (DESIGN.md §12).

use crate::killmap::KilledMap;
use cr_router::flit::Shift;
use cr_router::{Flit, Router, WormId};
use cr_sim::{Cycle, InlineArr, PortId, Ring, VcId};
use std::ops::Range;

/// The state of one unidirectional link.
#[derive(Debug)]
#[repr(C, align(64))] // what a scan's gate reads first, on one cache line with the first lanes
pub struct LinkState {
    /// Total flits across all lanes, so a scan skips an idle link
    /// without looking at its lanes.
    occupied: usize,
    /// Earliest front-of-lane arrival. Exact after a scan and after a
    /// push; a purge can leave it stale-*early* (harmless: the link is
    /// scanned and the wake recomputed) but nothing can make it
    /// stale-late, because arrivals within a lane only ascend.
    wake: Cycle,
    /// Slots per lane — `buffer_depth + channel_latency`, the credits
    /// the upstream output VC starts with, so flow control never asks
    /// a lane to hold more.
    cap: usize,
    /// `(arrival cycle, flit)` slots, lane `v`'s ring at
    /// `v * cap..(v + 1) * cap`. Empty until the first push: a link no
    /// worm ever crosses owns no block.
    slots: Vec<(Cycle, Flit)>,
    /// One FIFO cursor per lane (virtual channel), so a blocked VC
    /// never blocks the others.
    lanes: InlineArr<Ring, 4>,
}

impl LinkState {
    /// The wake a scan starts from: later than any arrival.
    pub const NEVER: Cycle = Cycle::new(u64::MAX);

    /// An idle link of `num_vcs` lanes of `cap` slots each.
    pub fn new(num_vcs: usize, cap: usize) -> Self {
        LinkState {
            occupied: 0,
            wake: Cycle::ZERO,
            cap,
            slots: Vec::new(),
            lanes: InlineArr::new(num_vcs, Ring::default()),
        }
    }

    /// Flits on the link, all lanes together.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// The earliest cycle a flit on the link can be due; meaningful
    /// while [`LinkState::occupied`] is non-zero.
    #[inline]
    pub fn wake(&self) -> Cycle {
        self.wake
    }

    /// Number of lanes (virtual channels).
    #[inline]
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    fn seg(&self, v: usize) -> Range<usize> {
        v * self.cap..(v + 1) * self.cap
    }

    /// Lane `v`'s `(arrival, flit)` entries, front to back.
    pub fn lane(&self, v: usize) -> impl ExactSizeIterator<Item = &(Cycle, Flit)> {
        let slots = self.slots.get(self.seg(v)).unwrap_or_default();
        self.lanes[v].iter(slots)
    }

    /// Parks `flit` on lane `v`, due at `arrive`, keeping the wake
    /// current. Hands the flit back if the lane is full — the sender
    /// spent a credit it did not have.
    #[inline]
    pub fn push(&mut self, v: usize, arrive: Cycle, flit: Flit) -> Result<(), Flit> {
        if self.slots.is_empty() {
            self.slots = vec![(arrive, flit); self.lanes.len() * self.cap];
        }
        let seg = self.seg(v);
        self.lanes[v]
            .push(&mut self.slots[seg], (arrive, flit))
            .map_err(|(_, flit)| flit)?;
        if self.occupied == 0 || arrive < self.wake {
            self.wake = arrive;
        }
        self.occupied += 1;
        Ok(())
    }

    /// Pops lane `v`'s front flit if it is due and can leave the
    /// channel, returning it (hop count bumped) with whether its worm
    /// is killed. Wormhole channels are stall-holding: a live flit
    /// stays in the channel's pipeline latches while the downstream
    /// buffer is full (the `channel_latency` share of the credits
    /// covers exactly this occupancy); a killed one always drains.
    ///
    /// A front flit left behind lowers `wake` to its arrival, so a scan
    /// that pops every lane dry has the link's next wake in hand.
    #[inline]
    pub fn pop_due(
        &mut self,
        v: usize,
        now: Cycle,
        killed: &KilledMap,
        dst: &Router,
        dst_port: PortId,
        wake: &mut Cycle,
    ) -> Option<(Flit, bool)> {
        let slots = self.slots.get(self.seg(v)).unwrap_or_default();
        let &(arrive, ref flit) = self.lanes[v].front(slots)?;
        let killed = arrive <= now && killed.contains(flit.worm);
        if arrive > now || (!killed && dst.vc_is_full(dst_port, VcId::from_index(v))) {
            *wake = arrive.min(*wake);
            return None;
        }
        let (_, mut flit) = self.lanes[v].pop(slots)?;
        self.occupied -= 1;
        flit.hops = flit.hops.saturating_add(1);
        Some((flit, killed))
    }

    /// Ends a scan that called [`LinkState::pop_due`] on every lane
    /// until it returned `None`: `wake` is the minimum those calls
    /// collected from [`LinkState::NEVER`]. Returns whether the link
    /// still holds flits and must stay armed.
    #[inline]
    pub fn end_scan(&mut self, wake: Cycle) -> bool {
        self.wake = wake;
        self.occupied > 0
    }

    /// If the link carries nothing but lane `v`'s run of `worm`'s flits
    /// (see [`cr_router::flit::stream_run`]), exactly one due on each of
    /// the `len` cycles from `first_due` on, returns their sequence
    /// numbers — the lane of a worm streaming one flit per cycle over a
    /// `len`-cycle channel.
    pub fn lone_lane(
        &self,
        v: usize,
        worm: WormId,
        first_due: Cycle,
        len: usize,
    ) -> Option<Range<u32>> {
        let lane = self.lane(v);
        if self.occupied != len || lane.len() != len {
            return None;
        }
        let mut due = first_due;
        let mut on_time = true;
        let seqs = cr_router::flit::stream_run(
            lane.map(|(at, f)| {
                on_time &= *at == due;
                due += 1;
                f
            }),
            worm,
        )?;
        on_time.then_some(seqs)
    }

    /// Advances lane `v` by `d` cycles of a worm streaming one flit per
    /// cycle up to its `tail`, in closed form (see [`Shift`]): each flit
    /// becomes the flit `d` places further down the worm in the same
    /// slot, due `d` cycles later, and those past the tail drop from the
    /// back. The lane must be the only one occupied, as
    /// [`LinkState::lone_lane`] found it. Returns how many flits left
    /// the link for good.
    pub fn advance_lane(&mut self, v: usize, d: u32, tail: u32) -> usize {
        let seg = self.seg(v);
        let slots = self.slots.get_mut(seg).unwrap_or_default();
        let lane = &mut self.lanes[v];
        let Some(&(_, front)) = lane.front(slots) else {
            return 0;
        };
        let len = lane.len();
        lane.truncate(
            Shift {
                from: front.seq,
                d,
                tail,
            }
            .kept(len),
        );
        for (at, f) in lane.iter_mut(slots) {
            *at += u64::from(d);
            *f = f.advanced(d);
        }
        self.wake += u64::from(d);
        let gone = len - lane.len();
        self.occupied -= gone;
        gone
    }

    /// Drops `worm`'s flits from lane `v` — teardown of the
    /// stall-holding link stage; returns how many went.
    pub(crate) fn purge(&mut self, v: usize, worm: WormId) -> usize {
        let seg = self.seg(v);
        let slots = self.slots.get_mut(seg).unwrap_or_default();
        let purged = self.lanes[v].retain(slots, |(_, f)| f.worm != worm);
        self.occupied -= purged;
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_router::flit::worm_flit_at;
    use cr_router::RouterConfig;
    use cr_sim::{MessageId, NodeId, SimRng};

    const NEVER: Cycle = LinkState::NEVER;

    fn flit(message: u64, seq: u32) -> Flit {
        let worm = WormId::new(MessageId::new(message), 0);
        worm_flit_at(
            worm,
            NodeId::new(1),
            NodeId::new(0),
            8,
            0,
            0,
            Cycle::ZERO,
            seq,
        )
    }

    /// A one-port router whose input VCs hold one flit each.
    fn downstream(num_vcs: usize) -> Router {
        let cfg = RouterConfig {
            num_node_ports: 1,
            num_vcs,
            buffer_depth: 1,
            num_inject: 1,
            inject_depth: 1,
            num_eject: 1,
            link_depth: 1,
        };
        Router::new(NodeId::new(0), cfg, SimRng::from_seed(1))
    }

    /// A tripwire, not a law: a fabric has a few of these per node,
    /// used or not. Re-record on purpose, with the reason.
    #[test]
    fn record_size_stays_within_budget() {
        assert_eq!(std::mem::size_of::<LinkState>(), 128, "LinkState bytes");
    }

    /// Three lanes (Duato's count) over one block that appears with
    /// the first flit: each lane is its own FIFO, a full lane hands
    /// the flit back and touches nothing, and a purge takes one worm
    /// out of one lane.
    #[test]
    fn lanes_share_one_lazy_block_and_nothing_else() {
        let mut link = LinkState::new(3, 2);
        assert!(link.slots.is_empty(), "an unused link owns no block");
        assert_eq!((link.occupied(), link.num_lanes()), (0, 3));
        assert_eq!(link.purge(1, flit(1, 0).worm), 0);

        link.push(1, Cycle::new(5), flit(1, 0)).unwrap();
        assert_eq!(link.slots.len(), 3 * 2);
        link.push(2, Cycle::new(4), flit(2, 0)).unwrap();
        link.push(1, Cycle::new(6), flit(3, 0)).unwrap();
        assert_eq!(link.push(1, Cycle::new(7), flit(1, 1)), Err(flit(1, 1)));
        assert_eq!((link.occupied(), link.wake()), (3, Cycle::new(4)));
        let lane = |link: &LinkState, v| -> Vec<_> {
            link.lane(v)
                .map(|&(at, f)| (at.as_u64(), f.worm.message.as_u64()))
                .collect()
        };
        assert_eq!(lane(&link, 0), []);
        assert_eq!(lane(&link, 1), [(5, 1), (6, 3)]);
        assert_eq!(lane(&link, 2), [(4, 2)]);

        assert_eq!(link.purge(1, flit(1, 0).worm), 1);
        assert_eq!(lane(&link, 1), [(6, 3)]);
        assert_eq!(lane(&link, 2), [(4, 2)]);
        assert_eq!(link.occupied(), 2);
    }

    /// `pop_due` lets a flit go when it is due and either fits
    /// downstream or is killed, and every refusal reports the arrival
    /// it left at the front — which is how a scan learns the next wake
    /// without a second pass.
    #[test]
    fn pop_due_gates_on_time_and_space_and_collects_the_wake() {
        let (mut dst, port, vc) = (downstream(2), PortId::new(0), VcId::new(0));
        let mut killed = KilledMap::new();
        let mut link = LinkState::new(2, 2);
        link.push(0, Cycle::new(3), flit(1, 0)).unwrap();
        link.push(0, Cycle::new(4), flit(1, 1)).unwrap();
        link.push(1, Cycle::new(9), flit(2, 0)).unwrap();

        // Nothing due at cycle 2: both fronts are reported.
        let mut wake = NEVER;
        for v in 0..2 {
            assert_eq!(
                link.pop_due(v, Cycle::new(2), &killed, &dst, port, &mut wake),
                None
            );
        }
        assert_eq!(wake, Cycle::new(3));
        assert!(link.end_scan(wake));
        assert_eq!(link.wake(), Cycle::new(3));

        // Due and room downstream: it goes, one hop older.
        let mut wake = NEVER;
        let (head, dead) = link
            .pop_due(0, Cycle::new(4), &killed, &dst, port, &mut wake)
            .unwrap();
        assert_eq!((head.seq, head.hops, dead), (0, 1, false));
        dst.accept(Cycle::new(4), port, vc, head);
        // Due but the one-flit buffer is now full: parked in the
        // channel, and its (past) arrival is the wake.
        assert_eq!(
            link.pop_due(0, Cycle::new(4), &killed, &dst, port, &mut wake),
            None
        );
        assert_eq!((wake, link.occupied()), (Cycle::new(4), 2));
        // A killed worm's flit drains regardless.
        killed.insert(flit(1, 0).worm, Cycle::new(4));
        let (body, dead) = link
            .pop_due(0, Cycle::new(5), &killed, &dst, port, &mut wake)
            .unwrap();
        assert_eq!((body.seq, dead), (1, true));
        assert_eq!(
            link.pop_due(0, Cycle::new(5), &killed, &dst, port, &mut wake),
            None
        );

        // Only lane 1's flit is left; emptied, the link disarms.
        let mut wake = NEVER;
        assert_eq!(
            link.pop_due(1, Cycle::new(5), &killed, &dst, port, &mut wake),
            None
        );
        assert!(link.end_scan(wake));
        assert_eq!(link.wake(), Cycle::new(9));
        assert!(link
            .pop_due(1, Cycle::new(9), &killed, &dst, port, &mut wake)
            .is_some());
        assert!(!link.end_scan(NEVER));
    }
}
