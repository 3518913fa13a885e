//! The in-process wire: typed frames over per-link `mpsc` channels.
//!
//! The exchange topology is a flat tree rooted at rank 0 — every frame
//! either originates or terminates at the root, which is what makes the
//! reduction order a fixed function of rank numbering (the root always
//! consumes uplinks in rank order 1, 2, …, N−1) rather than of thread
//! scheduling. Channels are `std::sync::mpsc`; a peer that dies drops its
//! endpoints, every blocked `recv` on the other side returns
//! `Disconnected`, and the error surfaces as
//! [`CoreError::PeerLost`](apt_core::CoreError::PeerLost) — the signal the
//! coordinator turns into a fleet rollback.

use apt_core::CoreError;
use std::sync::mpsc::{channel, Receiver, Sender};

/// One message of the gradient-exchange protocol. Sizes below are the
/// *accounted wire bytes* — what the frame would occupy on a physical
/// link, not what the in-process channel actually allocates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Phase-1 uplink: the rank's replica digest, per-parameter
    /// `max |g + r|` and its state buffers. 8 bytes + 4 per parameter +
    /// 4 per buffer element.
    Begin {
        /// Folded replica integrity digest (divergence gate).
        digest: u64,
        /// Per-parameter local gradient magnitude.
        amax: Vec<f32>,
        /// The rank's non-learnable state (batch-norm running statistics,
        /// `Network::visit_buffers` order) after this step's forward;
        /// empty for a net that has none.
        buffers: Vec<f32>,
    },
    /// Phase-1 downlink: the digest verdict, per-parameter global maxima
    /// and the fleet's mean buffers. 1 byte + 4 per parameter + 4 per
    /// buffer element.
    Scales {
        /// `false` when any rank's digest disagreed with the root's.
        ok: bool,
        /// Per-parameter `max` over all ranks' `amax`.
        gmax: Vec<f32>,
        /// Rank-ordered mean of every rank's `buffers`.
        buffers: Vec<f32>,
    },
    /// Phase-2 uplink: every parameter's `k`-bit codes, packed and
    /// concatenated. 8 bytes per word.
    Codes(Vec<u64>),
    /// Phase-2 downlink: the integer sums, packed at `k + ⌈log₂N⌉` bits
    /// and concatenated. 8 bytes per word.
    Sums(Vec<u64>),
}

impl Frame {
    /// Accounted size of this frame on a physical wire.
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Frame::Begin { amax, buffers, .. } => 8 + 4 * (amax.len() + buffers.len()) as u64,
            Frame::Scales { gmax, buffers, .. } => 1 + 4 * (gmax.len() + buffers.len()) as u64,
            Frame::Codes(words) | Frame::Sums(words) => 8 * words.len() as u64,
        }
    }
}

/// One rank's endpoints into the flat tree.
///
/// For the root (rank 0), slot `i` talks to rank `i + 1`; for every other
/// rank there is exactly one slot, talking to the root.
#[derive(Debug)]
pub(crate) struct Links {
    /// This rank's index.
    pub rank: usize,
    /// Total ranks in the fleet.
    pub world: usize,
    tx: Vec<Sender<Frame>>,
    rx: Vec<Receiver<Frame>>,
}

impl Links {
    fn peer(&self, slot: usize) -> usize {
        if self.rank == 0 {
            slot + 1
        } else {
            0
        }
    }

    /// Sends `frame` to the peer at `slot`, returning its accounted wire
    /// size.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerLost`] when the peer's receiver is gone.
    pub(crate) fn send(&self, slot: usize, frame: Frame) -> apt_core::Result<u64> {
        let bytes = frame.wire_bytes();
        self.tx[slot].send(frame).map_err(|_| CoreError::PeerLost {
            rank: self.peer(slot),
        })?;
        Ok(bytes)
    }

    /// Blocks for the next frame from the peer at `slot`, returning it
    /// with its accounted wire size.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerLost`] when the peer's sender is gone.
    pub(crate) fn recv(&self, slot: usize) -> apt_core::Result<(Frame, u64)> {
        let frame = self.rx[slot].recv().map_err(|_| CoreError::PeerLost {
            rank: self.peer(slot),
        })?;
        let bytes = frame.wire_bytes();
        Ok((frame, bytes))
    }
}

/// Builds the flat-tree channel fabric for `world` ranks: element `r` of
/// the result is rank `r`'s endpoints. Rank 0 gets `world − 1` slots (one
/// per peer, in rank order); every other rank gets a single slot to the
/// root.
pub(crate) fn fabric(world: usize) -> Vec<Links> {
    let mut root_tx = Vec::with_capacity(world.saturating_sub(1));
    let mut root_rx = Vec::with_capacity(world.saturating_sub(1));
    let mut peers = Vec::with_capacity(world.saturating_sub(1));
    for rank in 1..world {
        let (up_tx, up_rx) = channel();
        let (down_tx, down_rx) = channel();
        root_tx.push(down_tx);
        root_rx.push(up_rx);
        peers.push(Links {
            rank,
            world,
            tx: vec![up_tx],
            rx: vec![down_rx],
        });
    }
    let mut all = vec![Links {
        rank: 0,
        world,
        tx: root_tx,
        rx: root_rx,
    }];
    all.extend(peers);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_account_their_physical_size() {
        let begin = |buffers| Frame::Begin {
            digest: 7,
            amax: vec![1.0; 3],
            buffers,
        };
        assert_eq!(begin(vec![]).wire_bytes(), 8 + 12);
        assert_eq!(begin(vec![0.5; 4]).wire_bytes(), 8 + 12 + 16);
        let scales = |buffers| Frame::Scales {
            ok: true,
            gmax: vec![1.0; 3],
            buffers,
        };
        assert_eq!(scales(vec![]).wire_bytes(), 1 + 12);
        assert_eq!(scales(vec![0.5; 4]).wire_bytes(), 1 + 12 + 16);
        assert_eq!(Frame::Codes(vec![0; 5]).wire_bytes(), 40);
        assert_eq!(Frame::Sums(vec![0; 2]).wire_bytes(), 16);
    }

    #[test]
    fn fabric_routes_in_rank_order_and_detects_death() {
        let mut links = fabric(3);
        let l2 = links.pop().unwrap();
        let l1 = links.pop().unwrap();
        let l0 = links.pop().unwrap();
        assert_eq!((l0.rank, l0.world), (0, 3));
        // Peers send up; root receives them on the slots matching their
        // ranks regardless of send order.
        l2.send(0, Frame::Codes(vec![2])).unwrap();
        l1.send(0, Frame::Codes(vec![1])).unwrap();
        let (f1, b1) = l0.recv(0).unwrap();
        assert_eq!((f1, b1), (Frame::Codes(vec![1]), 8));
        let (f2, _) = l0.recv(1).unwrap();
        assert_eq!(f2, Frame::Codes(vec![2]));
        // Root broadcasts down.
        l0.send(0, Frame::Sums(vec![9])).unwrap();
        assert_eq!(l1.recv(0).unwrap().0, Frame::Sums(vec![9]));
        // Rank 2 dies: the root's next recv on its slot names the corpse.
        drop(l2);
        assert_eq!(
            l0.recv(1).unwrap_err(),
            apt_core::CoreError::PeerLost { rank: 2 }
        );
        // And the root dying is what rank 1 sees on its only slot.
        drop(l0);
        assert_eq!(
            l1.recv(0).unwrap_err(),
            apt_core::CoreError::PeerLost { rank: 0 }
        );
    }
}
