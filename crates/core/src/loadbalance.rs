//! Frontier→PE load balancing (DESIGN.md §10).
//!
//! The paper's scheduling loop hard-codes *owner-computes*: every task is
//! processed by the PE that owns its vertex, so a skewed frontier leaves
//! some PEs idle while the hub owner grinds (the `atos-profile` "skewed"
//! verdict). This module names the closed set of disciplines the
//! simulated runtime can use instead, as the [`LoadBalance`] enum; the
//! runtime reads `AtosConfig::lb` and asks the enum the few questions
//! that differ between disciplines.
//!
//! A stealing discipline lets a PE that pops an empty queue *pull* work
//! from a busier in-shard peer. The pull happens at pop time — queues
//! never hold foreign tasks, and every stolen task is still **processed
//! under the victim's identity** (`process(victim, task)`), so
//! owner-computes state, sender-side mirrors, and the shard-escape
//! discipline are untouched. Only the *busy time* of the work moves to
//! the thief, which is exactly the hardware analogy: a stolen
//! `pop_group` executes on the thief's SMs while the data it touches
//! stays where it lives.
//!
//! Four disciplines ship (selected via `AtosConfig::lb` /
//! `--load-balance`):
//!
//! * [`LoadBalance::Owner`] — the paper's static owner-computes; never
//!   steals. Byte-identical at every shard count.
//! * [`LoadBalance::Steal`] — work stealing: an idle PE pulls up to one
//!   group (the queue substrate's `pop_group` reservation width, = the
//!   `CommMode::Direct` coalescing group of 32) from the longest
//!   in-shard queue, leaving the victim at least half its backlog.
//! * [`LoadBalance::Chunk`] — chunked/merge-path partitioning for
//!   power-law skew: victims are ranked by *pending edge count* (the
//!   merge-path diagonal), and a steal pulls tasks until half the
//!   victim's pending edges move, so a hub vertex's adjacency work
//!   splits by edges rather than by vertex count.
//! * [`LoadBalance::Priority`] — priority-aware scheduling: no stealing;
//!   instead the runtime normalizes FIFO queues to priority buckets
//!   (threshold 1, delta 1) so applications that expose a bucket
//!   priority — delta-stepping SSSP's light/heavy split — run in
//!   near-priority order.
//!
//! Steals only move work *within* an engine shard, so each shard's event
//! order stays sequential and the sharded runtime's conservative-PDES
//! determinism is preserved: for a fixed `(config, K)` every run is
//! bit-identical, and `Owner` remains byte-identical across all `K`.

/// Steal granularity: tasks one steal may claim. Mirrors the queue
/// substrate's group reservation width (`pop_group`) and the NVLink
/// direct-comm coalescing group — one warp's worth of tasks is the unit
/// that can be claimed with a single counter reservation, so it is the
/// safe steal quantum.
pub const STEAL_GRAIN: usize = 32;

/// Load-balance discipline selector (the `--load-balance` flag; stored in
/// `AtosConfig::lb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LoadBalance {
    /// Static owner-computes (the paper's scheduling; the default).
    Owner,
    /// Cross-PE work stealing at group granularity.
    Steal,
    /// Edge-count-aware chunked stealing (merge-path style).
    Chunk,
    /// Priority-aware scheduling (bucketed worklists, no stealing).
    Priority,
}

impl LoadBalance {
    /// All disciplines, in reporting order.
    pub const ALL: [LoadBalance; 4] = [
        LoadBalance::Owner,
        LoadBalance::Steal,
        LoadBalance::Chunk,
        LoadBalance::Priority,
    ];

    /// Stable lowercase name (flag value, metric key fragment).
    pub const fn name(self) -> &'static str {
        match self {
            LoadBalance::Owner => "owner",
            LoadBalance::Steal => "steal",
            LoadBalance::Chunk => "chunk",
            LoadBalance::Priority => "priority",
        }
    }

    /// Stable numeric code recorded in `RunStats::lb_discipline` (metric
    /// `lb.discipline`), so profiles can name the active discipline.
    pub const fn code(self) -> u8 {
        match self {
            LoadBalance::Owner => 0,
            LoadBalance::Steal => 1,
            LoadBalance::Chunk => 2,
            LoadBalance::Priority => 3,
        }
    }

    /// Parse a `--load-balance` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        LoadBalance::ALL.into_iter().find(|lb| lb.name() == s)
    }

    /// Inverse of [`LoadBalance::code`] (profile rendering).
    pub fn from_code(code: u8) -> Option<Self> {
        LoadBalance::ALL.into_iter().find(|lb| lb.code() == code)
    }

    /// Whether an idle PE may pull work from a busier in-shard peer (and
    /// a PE whose backlog survives a step wakes drained peers to try).
    #[inline]
    pub const fn steals(self) -> bool {
        matches!(self, LoadBalance::Steal | LoadBalance::Chunk)
    }

    /// Whether the runtime maintains per-PE pending-edge counts (one
    /// `task_edges` call per push), which edge-aware victim ranking and
    /// steal budgets read.
    #[inline]
    pub const fn tracks_edges(self) -> bool {
        matches!(self, LoadBalance::Chunk)
    }

    /// Score a candidate victim; the runtime steals from the
    /// highest-scoring PE (ties to the lowest index), and `0` marks the
    /// candidate not stealable. A victim keeps at least one task, so a
    /// queue of one never scores.
    #[inline]
    pub fn victim_score(self, queue_len: usize, pending_edges: u64) -> u64 {
        if queue_len < 2 {
            return 0;
        }
        match self {
            LoadBalance::Steal => queue_len as u64,
            // Rank by edges; `max(1)` keeps an edge-free but deep queue
            // stealable (zero-degree frontiers still cost task overhead).
            LoadBalance::Chunk => pending_edges.max(1),
            LoadBalance::Owner | LoadBalance::Priority => 0,
        }
    }

    /// Edge budget bounding one steal: the runtime stops pulling once the
    /// stolen tasks' `task_edges` reach this. Chunked steals move half
    /// the victim's pending edges (at least one task); every other
    /// discipline is bounded by task count alone (`u64::MAX`).
    #[inline]
    pub fn edge_budget(self, victim_pending_edges: u64) -> u64 {
        match self {
            LoadBalance::Chunk => (victim_pending_edges / 2).max(1),
            _ => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_codes_round_trip() {
        for lb in LoadBalance::ALL {
            assert_eq!(LoadBalance::parse(lb.name()), Some(lb));
            assert_eq!(LoadBalance::from_code(lb.code()), Some(lb));
        }
        assert_eq!(LoadBalance::parse("merge-path"), None);
        assert_eq!(LoadBalance::from_code(99), None);
    }

    #[test]
    fn owner_and_priority_never_steal() {
        for lb in [LoadBalance::Owner, LoadBalance::Priority] {
            assert!(!lb.steals());
            assert!(!lb.tracks_edges());
            assert_eq!(lb.victim_score(1_000, 1_000_000), 0);
            assert_eq!(lb.edge_budget(1_000), u64::MAX);
        }
    }

    #[test]
    fn stealing_ranks_by_queue_length() {
        let lb = LoadBalance::Steal;
        assert!(lb.steals());
        assert!(!lb.tracks_edges());
        assert_eq!(lb.victim_score(0, 0), 0);
        assert_eq!(lb.victim_score(1, 0), 0, "victim keeps its last task");
        assert_eq!(lb.victim_score(10, 0), 10);
        assert!(lb.victim_score(64, 0) > lb.victim_score(8, 0));
        assert_eq!(lb.edge_budget(123), u64::MAX, "count-bounded");
    }

    #[test]
    fn chunking_ranks_by_edges_and_budgets_half() {
        let lb = LoadBalance::Chunk;
        assert!(lb.steals());
        assert!(lb.tracks_edges());
        // A short queue with a hub beats a long queue of leaves.
        assert!(lb.victim_score(2, 10_000) > lb.victim_score(100, 100));
        assert_eq!(lb.victim_score(1, 10_000), 0, "victim keeps its last task");
        assert_eq!(lb.victim_score(5, 0), 1, "edge-free deep queue stealable");
        assert_eq!(lb.edge_budget(10_000), 5_000);
        assert_eq!(lb.edge_budget(0), 1, "zero-edge steals still move one task");
    }
}
