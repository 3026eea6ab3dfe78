//! The benchmark's cells: one framework running one algorithm on a
//! workload's inputs, and the independent oracle each result must match.

use std::time::Instant;

use atos_apps::bfs::{run_bfs, run_bfs_sharded};
use atos_apps::cc::run_cc_sharded;
use atos_apps::pagerank::run_pagerank_sharded;
use atos_apps::sssp::run_sssp_delta_sharded;
use atos_baselines::{bsp_bfs, galois_bfs, groute_bfs};
use atos_bench::{ALPHA, EPSILON};
use atos_core::{AtosConfig, RunStats};
use atos_graph::reference::{self, UNREACHED};
use atos_graph::weights::{connected_components, dijkstra, UNREACHED_DIST};
use atos_graph::VertexId;
use atos_sim::Fabric;

use crate::inputs::Inputs;

/// Delta-stepping bucket width of the Table III SSSP block.
pub const SSSP_DELTA: u64 = 8;
/// Largest per-vertex L1 distance from the PageRank oracle that passes,
/// the bound the crate tests use.
const PR_TOLERANCE: f64 = 1e-3;

/// One framework × algorithm pairing.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    AtosPr(AtosConfig),
    AtosBfs(AtosConfig),
    AtosSssp(AtosConfig),
    AtosCc(AtosConfig),
    GaloisBfs,
    GunrockBfs,
    GrouteBfs,
}

/// A named cell of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub name: &'static str,
    pub kind: Kind,
}

/// A cell's result vector, checked against the matching oracle.
pub enum Output {
    Rank(Vec<f64>),
    Depth(Vec<u32>),
    Dist(Vec<u64>),
    Label(Vec<u32>),
}

impl Cell {
    /// True for cells that run the Atos runtime (the others are baselines).
    pub fn is_atos(&self) -> bool {
        matches!(
            self.kind,
            Kind::AtosPr(_) | Kind::AtosBfs(_) | Kind::AtosSssp(_) | Kind::AtosCc(_)
        )
    }

    /// Whether the cell traverses from a source, and so runs once from
    /// each source of each input instance.
    fn is_traversal(&self) -> bool {
        !matches!(self.kind, Kind::AtosPr(_) | Kind::AtosCc(_))
    }

    /// Run the cell on each input instance: once, or once per source for
    /// traversals, each run on a copy of `fabric`. An Atos cell runs on
    /// `shards` engine shards (at K=1 the `run_*_sharded` entry points are
    /// what the plain `run_*` calls call); baselines always run on one.
    pub fn run(
        &self,
        inputs: &[Inputs],
        fabric: &Fabric,
        shards: usize,
    ) -> Vec<(RunStats, Output)> {
        let mut runs = Vec::new();
        for inp in inputs {
            if self.is_traversal() {
                for &src in &inp.sources {
                    runs.push(self.run_from(inp, src, fabric.clone(), shards));
                }
            } else {
                runs.push(self.run_from(inp, 0, fabric.clone(), shards));
            }
        }
        runs
    }

    /// One run of the cell; `src` is ignored by PageRank and CC.
    fn run_from(
        &self,
        inp: &Inputs,
        src: VertexId,
        fabric: Fabric,
        shards: usize,
    ) -> (RunStats, Output) {
        let g = inp.graph.clone();
        let p = inp.partition.clone();
        match self.kind {
            Kind::AtosPr(cfg) => {
                let r = run_pagerank_sharded(g, p, ALPHA, EPSILON, fabric, cfg, shards);
                (r.stats, Output::Rank(r.rank))
            }
            Kind::AtosBfs(cfg) => {
                // K=1 goes through `run_bfs`, the untraced twin of the
                // `run_bfs_traced` call `trace.overhead_frac` compares with.
                let r = if shards > 1 {
                    run_bfs_sharded(g, p, src, fabric, cfg, shards)
                } else {
                    run_bfs(g, p, src, fabric, cfg)
                };
                (r.stats, Output::Depth(r.depth))
            }
            Kind::AtosSssp(cfg) => {
                let w = inp
                    .weights
                    .clone()
                    .expect("SSSP cell on an unweighted workload");
                let r = run_sssp_delta_sharded(g, w, p, src, SSSP_DELTA, fabric, cfg, shards);
                (r.stats, Output::Dist(r.dist))
            }
            Kind::AtosCc(cfg) => {
                let r = run_cc_sharded(g, p, fabric, cfg, shards);
                (r.stats, Output::Label(r.label))
            }
            Kind::GaloisBfs => {
                let r = galois_bfs(g, p, src, fabric);
                (r.stats, Output::Depth(r.depth))
            }
            Kind::GunrockBfs => {
                let r = bsp_bfs(g, p, src, fabric);
                (r.stats, Output::Depth(r.depth))
            }
            Kind::GrouteBfs => {
                let r = groute_bfs(g, p, src, fabric);
                (r.stats, Output::Depth(r.depth))
            }
        }
    }
}

/// Serial reference results for the algorithms a workload runs, one per
/// run of a cell, in the order [`Cell::run`] makes its runs.
#[derive(Default)]
pub struct Oracles {
    rank: Vec<Vec<f64>>,
    pr_relaxations: u64,
    depth: Vec<Vec<u32>>,
    dist: Vec<Vec<u64>>,
    label: Vec<Vec<u32>>,
}

impl Oracles {
    /// Compute the oracle of every algorithm in `cells`; returns them with
    /// the host seconds spent in `atos_graph`'s reference functions.
    pub fn compute(cells: &[Cell], inputs: &[Inputs]) -> (Oracles, f64) {
        let t = Instant::now();
        let mut o = Oracles::default();
        let needs = |f: fn(&Kind) -> bool| cells.iter().any(|c| f(&c.kind));
        let pr = needs(|k| matches!(k, Kind::AtosPr(_)));
        let bfs = needs(|k| {
            matches!(
                k,
                Kind::AtosBfs(_) | Kind::GaloisBfs | Kind::GunrockBfs | Kind::GrouteBfs
            )
        });
        let sssp = needs(|k| matches!(k, Kind::AtosSssp(_)));
        let cc = needs(|k| matches!(k, Kind::AtosCc(_)));
        for inp in inputs {
            let g = &inp.graph;
            if pr {
                let r = reference::pagerank_push(g, ALPHA, EPSILON);
                o.pr_relaxations += r.relaxations;
                o.rank.push(r.rank);
            }
            if bfs {
                o.depth
                    .extend(inp.sources.iter().map(|&s| reference::bfs(g, s)));
            }
            if sssp {
                let w = inp
                    .weights
                    .as_ref()
                    .expect("SSSP cell on an unweighted workload");
                o.dist
                    .extend(inp.sources.iter().map(|&s| dijkstra(g, w, s)));
            }
            if cc {
                o.label.push(connected_components(g));
            }
        }
        (o, t.elapsed().as_secs_f64())
    }

    /// Whether `out`, the result of run `i` of a cell, matches its oracle.
    pub fn check(&self, i: usize, out: &Output) -> bool {
        match out {
            Output::Rank(rank) => self.rank.get(i).is_some_and(|want| {
                rank.len() == want.len()
                    && reference::rank_l1(rank, want) / (want.len().max(1) as f64) < PR_TOLERANCE
            }),
            Output::Depth(d) => self.depth.get(i) == Some(d),
            Output::Dist(d) => self.dist.get(i) == Some(d),
            Output::Label(l) => self.label.get(i) == Some(l),
        }
    }

    /// The least task count all runs of a cell of `kind` could process:
    /// the reference relaxations for PageRank, the reachable vertices for
    /// traversals, every vertex for CC.
    pub fn ideal_tasks(&self, kind: Kind) -> u64 {
        match kind {
            Kind::AtosPr(_) => self.pr_relaxations,
            Kind::AtosSssp(_) => reached(&self.dist, UNREACHED_DIST),
            Kind::AtosCc(_) => self.label.iter().map(|l| l.len() as u64).sum(),
            _ => reached(&self.depth, UNREACHED),
        }
    }
}

/// Entries of the oracle vectors other than their `unreached` marker.
fn reached<T: PartialEq>(oracles: &[Vec<T>], unreached: T) -> u64 {
    oracles
        .iter()
        .flatten()
        .filter(|&x| *x != unreached)
        .count() as u64
}

/// The identity of a cell's deterministic outcome: the virtual time and
/// every `RunStats` counter of each of its runs. With `sharded`,
/// `peak_pending_events` is left out: on K > 1 engine shards it is the
/// sum of per-shard maxima, which the runtime does not promise to equal
/// the sequential maximum.
pub fn fingerprint(stats: &[RunStats], sharded: bool) -> String {
    if sharded {
        let mut s = stats.to_vec();
        for run in &mut s {
            run.peak_pending_events = 0;
        }
        format!("{s:?}")
    } else {
        format!("{stats:?}")
    }
}
