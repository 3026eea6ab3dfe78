//! Pins every load-balance discipline's exact simulated outcome.
//!
//! BFS and delta-stepping SSSP run on a small skewed R-MAT graph over 4
//! PEs, under each `LoadBalance` discipline, sequentially (K=1) and on 2
//! engine shards (K=2; steals stay inside a shard, so the stealing
//! disciplines legitimately differ between the two). The expected
//! counters are literals recorded from the runtime before load balancing
//! moved from a trait object to the `LoadBalance` enum; any drift in
//! virtual time, event count, steal bookkeeping or task count fails
//! here. Depths and distances must match the serial oracles exactly.

use std::sync::Arc;

use atos_apps::bfs::run_bfs_sharded;
use atos_apps::sssp::run_sssp_delta_sharded;
use atos_core::{AtosConfig, LoadBalance, RunStats};
use atos_graph::generators::rmat;
use atos_graph::weights::{dijkstra, EdgeWeights};
use atos_graph::{reference, Csr, Partition, VertexId};
use atos_sim::Fabric;
use LoadBalance::{Chunk, Owner, Priority, Steal};

const PES: usize = 4;
const SOURCE: VertexId = 0;
const DELTA: u64 = 4;

/// `[elapsed_ns, sim_events, lb_steals, lb_stolen_tasks, lb_stolen_edges, total_tasks]`.
type Pinned = [u64; 6];

fn pinned(s: &RunStats) -> Pinned {
    [
        s.elapsed_ns,
        s.sim_events,
        s.lb_steals,
        s.lb_stolen_tasks,
        s.lb_stolen_edges,
        s.total_tasks(),
    ]
}

/// Hubs sit at low vertex ids under R-MAT's `a ≫ d` skew, so a block
/// partition piles the heavy adjacency onto PE 0 — the stealing
/// disciplines have work to move.
fn setup() -> (Arc<Csr>, Arc<Partition>) {
    let g = rmat(9, 4096, (0.57, 0.19, 0.19, 0.05), 7);
    let part = Partition::block(g.n_vertices(), PES);
    (Arc::new(g), Arc::new(part))
}

fn cfg(lb: LoadBalance) -> AtosConfig {
    AtosConfig::standard_persistent().with_lb(lb)
}

// (discipline, shards, expected)
const BFS: [(LoadBalance, usize, Pinned); 8] = [
    (Owner, 1, [21829, 90, 0, 0, 0, 401]),
    (Owner, 2, [21829, 90, 0, 0, 0, 401]),
    (Steal, 1, [23752, 78, 6, 35, 226, 369]),
    (Steal, 2, [22629, 86, 3, 15, 39, 381]),
    (Chunk, 1, [23752, 79, 5, 22, 153, 369]),
    (Chunk, 2, [22629, 86, 3, 15, 39, 381]),
    (Priority, 1, [22688, 97, 0, 0, 0, 399]),
    (Priority, 2, [22688, 97, 0, 0, 0, 399]),
];

const SSSP: [(LoadBalance, usize, Pinned); 8] = [
    (Owner, 1, [27788, 178, 0, 0, 0, 985]),
    (Owner, 2, [27788, 178, 0, 0, 0, 985]),
    (Steal, 1, [25142, 166, 3, 65, 504, 1051]),
    (Steal, 2, [26312, 182, 3, 18, 87, 1063]),
    (Chunk, 1, [25142, 166, 3, 65, 504, 1051]),
    (Chunk, 2, [26312, 182, 3, 14, 78, 1063]),
    (Priority, 1, [32880, 264, 0, 0, 0, 867]),
    (Priority, 2, [32880, 264, 0, 0, 0, 867]),
];

#[test]
fn bfs_stats_are_pinned_per_discipline() {
    let (g, part) = setup();
    let oracle = reference::bfs(&g, SOURCE);
    for (lb, k, expected) in BFS {
        let run = run_bfs_sharded(
            g.clone(),
            part.clone(),
            SOURCE,
            Fabric::daisy(PES),
            cfg(lb),
            k,
        );
        assert_eq!(run.depth, oracle, "{} K={k} depths", lb.name());
        assert_eq!(pinned(&run.stats), expected, "{} K={k}", lb.name());
    }
}

#[test]
fn sssp_delta_stats_are_pinned_per_discipline() {
    let (g, part) = setup();
    let w = Arc::new(EdgeWeights::random(&g, 16, 9));
    let oracle = dijkstra(&g, &w, SOURCE);
    for (lb, k, expected) in SSSP {
        let run = run_sssp_delta_sharded(
            g.clone(),
            w.clone(),
            part.clone(),
            SOURCE,
            DELTA,
            Fabric::daisy(PES),
            cfg(lb),
            k,
        );
        assert_eq!(run.dist, oracle, "{} K={k} distances", lb.name());
        assert_eq!(pinned(&run.stats), expected, "{} K={k}", lb.name());
    }
}

#[test]
fn every_discipline_and_shard_count_is_pinned() {
    for table in [&BFS, &SSSP] {
        for lb in LoadBalance::ALL {
            for k in [1, 2] {
                assert!(
                    table.iter().any(|&(l, s, _)| l == lb && s == k),
                    "{} K={k} missing",
                    lb.name()
                );
            }
        }
    }
}
