//! Cluster topology: nodes × sockets × cores and rank placement.
//!
//! Ranks are placed in *block* order (as with `mpirun --map-by core`
//! with pinning, which is what the paper uses): rank `r` lives on node
//! `r / (sockets * cores)`, socket `(r / cores) % sockets`, core
//! `r % cores` of that socket.

#![forbid(unsafe_code)]

use crate::Rank;

/// Communication level between two ranks, from closest to farthest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Both ranks are pinned to cores of the same socket.
    SameSocket,
    /// Same compute node, different sockets.
    SameNode,
    /// Different compute nodes (goes through the interconnect).
    InterNode,
}

/// Shape of a simulated cluster and the rank→hardware mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    sockets_per_node: usize,
    cores_per_socket: usize,
}

impl Topology {
    /// Creates a topology of `nodes` nodes, each with `sockets_per_node`
    /// sockets of `cores_per_socket` cores.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(nodes: usize, sockets_per_node: usize, cores_per_socket: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            sockets_per_node > 0,
            "topology needs at least one socket per node"
        );
        assert!(
            cores_per_socket > 0,
            "topology needs at least one core per socket"
        );
        Self {
            nodes,
            sockets_per_node,
            cores_per_socket,
        }
    }

    /// Single-socket convenience constructor (`nodes × 1 × cores`).
    pub fn flat(nodes: usize, cores_per_node: usize) -> Self {
        Self::new(nodes, 1, cores_per_node)
    }

    /// Number of compute nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Sockets per node.
    pub fn sockets_per_node(&self) -> usize {
        self.sockets_per_node
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Cores per node (= sockets × cores/socket).
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Total core (= maximum rank) count.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node()
    }

    /// Node index of a rank.
    pub fn node_of(&self, rank: Rank) -> usize {
        rank / self.cores_per_node()
    }

    /// Global socket index (unique across the cluster) of a rank.
    pub fn socket_of(&self, rank: Rank) -> usize {
        rank / self.cores_per_socket
    }

    /// Socket index *within its node* of a rank.
    pub fn socket_in_node(&self, rank: Rank) -> usize {
        (rank / self.cores_per_socket) % self.sockets_per_node
    }

    /// Core index within its socket of a rank.
    pub fn core_in_socket(&self, rank: Rank) -> usize {
        rank % self.cores_per_socket
    }

    /// First (leader) rank on the node of `rank`.
    pub fn node_leader(&self, rank: Rank) -> Rank {
        self.node_of(rank) * self.cores_per_node()
    }

    /// First (leader) rank on the socket of `rank`.
    pub fn socket_leader(&self, rank: Rank) -> Rank {
        self.socket_of(rank) * self.cores_per_socket
    }

    /// Communication level between two ranks.
    pub fn level(&self, a: Rank, b: Rank) -> Level {
        if self.node_of(a) != self.node_of(b) {
            Level::InterNode
        } else if self.socket_of(a) != self.socket_of(b) {
            Level::SameNode
        } else {
            Level::SameSocket
        }
    }

    /// All ranks on the given node, in ascending order.
    pub fn ranks_on_node(&self, node: usize) -> std::ops::Range<Rank> {
        let cpn = self.cores_per_node();
        node * cpn..(node + 1) * cpn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_block_order() {
        // 2 nodes × 2 sockets × 4 cores.
        let t = Topology::new(2, 2, 4);
        assert_eq!(t.total_cores(), 16);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.socket_in_node(3), 0);
        assert_eq!(t.socket_in_node(4), 1);
        assert_eq!(t.core_in_socket(5), 1);
        assert_eq!(t.socket_of(12), 3);
    }

    #[test]
    fn levels() {
        let t = Topology::new(2, 2, 4);
        assert_eq!(t.level(0, 1), Level::SameSocket);
        assert_eq!(t.level(0, 4), Level::SameNode);
        assert_eq!(t.level(0, 8), Level::InterNode);
        assert_eq!(t.level(9, 1), Level::InterNode);
        assert_eq!(t.level(3, 3), Level::SameSocket);
    }

    #[test]
    fn leaders() {
        let t = Topology::new(3, 2, 4);
        assert_eq!(t.node_leader(11), 8);
        assert_eq!(t.socket_leader(11), 8);
        assert_eq!(t.socket_leader(13), 12);
        assert_eq!(t.ranks_on_node(1), 8..16);
    }

    #[test]
    fn level_ordering_reflects_distance() {
        assert!(Level::SameSocket < Level::SameNode);
        assert!(Level::SameNode < Level::InterNode);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = Topology::new(0, 1, 1);
    }
}
