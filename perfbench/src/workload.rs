//! The workloads and the measured run of one workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use atos_apps::bfs::run_bfs_traced;
use atos_bench::SweepRunner;
use atos_core::{AtosConfig, LoadBalance, RunStats, TraceBuffer};
use atos_graph::generators::Preset;
use atos_sim::{Engine, Fabric};

use crate::cells::{fingerprint, Cell, Kind, Oracles, Output};
use crate::inputs::{set_up, Inputs, Partitioning, SetupTimes};
use crate::probe;
use crate::report::{self, median, Metric};

/// GPUs (simulated PEs) of every workload.
const N_GPUS: usize = 4;
/// Input set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Table I preset the inputs are generated from.
    pub preset: &'static str,
    /// InfiniBand cluster fabric instead of the NVLink DGX station.
    pub ib: bool,
    /// How the graph is split over the GPUs.
    pub partitioning: Partitioning,
    /// Whether the inputs include SSSP edge weights.
    pub weighted: bool,
    /// Timed cells, in run order.
    pub cells: &'static [Cell],
    /// `(baseline, stealing)` cell pairs behind `core.loadbalance.virtual_gain`.
    pub steal_pairs: &'static [(&'static str, &'static str)],
    /// Cell re-run on two engine shards for `core.sharded.k2_speedup`.
    pub k2_cell: Option<&'static str>,
    /// Whether the cells are re-run on two sweep workers for `bench.sweep.t2_speedup`.
    pub sweep_t2: bool,
    /// BFS cell re-run with a `TraceBuffer` for the `trace.*` metrics.
    pub trace_cell: Option<&'static str>,
    /// Whether trace-off runs attempt the known-failure probe.
    pub probe: bool,
}

const fn cell(name: &'static str, kind: Kind) -> Cell {
    Cell { name, kind }
}

/// Every workload; `README.md` records why each was chosen.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "pr_nvlink_scalefree",
        preset: "twitter_s",
        ib: false,
        partitioning: Partitioning::Random,
        weighted: false,
        cells: &[
            cell(
                "atos_pr_persistent",
                Kind::AtosPr(AtosConfig::standard_persistent()),
            ),
            // The CPU-mediated BSP baseline on the same fabric; under 3% of
            // the workload's host time.
            cell("gunrock_bfs", Kind::GunrockBfs),
        ],
        steal_pairs: &[],
        k2_cell: Some("atos_pr_persistent"),
        sweep_t2: false,
        trace_cell: None,
        probe: false,
    },
    Workload {
        name: "pr_ib_aggregated",
        preset: "soc-LiveJournal1_s",
        ib: true,
        // Random, not `Dataset`'s BFS-grown partition: `bfs_grow`'s edge
        // cut swings from 0.15 to 0.65 across seeds on this graph, and the
        // IB PageRank cells' cost swings up to 20-fold with it.
        partitioning: Partitioning::Random,
        weighted: false,
        cells: &[
            cell("atos_ib_pr", Kind::AtosPr(AtosConfig::ib_pagerank())),
            cell("atos_ib_bfs", Kind::AtosBfs(AtosConfig::ib_bfs())),
            cell("galois_bfs", Kind::GaloisBfs),
        ],
        steal_pairs: &[],
        k2_cell: None,
        sweep_t2: false,
        trace_cell: None,
        probe: true,
    },
    Workload {
        name: "traverse_mesh",
        preset: "osm_eur_s",
        ib: false,
        partitioning: Partitioning::BfsGrow,
        weighted: true,
        cells: &[
            cell(
                "atos_bfs_owner",
                Kind::AtosBfs(AtosConfig::standard_persistent()),
            ),
            cell(
                "atos_bfs_steal",
                Kind::AtosBfs(AtosConfig::standard_persistent().with_lb(LoadBalance::Steal)),
            ),
            cell(
                "atos_sssp_priority",
                Kind::AtosSssp(AtosConfig::priority_discrete().with_lb(LoadBalance::Priority)),
            ),
            cell(
                "atos_sssp_steal",
                Kind::AtosSssp(AtosConfig::priority_discrete().with_lb(LoadBalance::Steal)),
            ),
            cell("atos_cc", Kind::AtosCc(AtosConfig::standard_persistent())),
            cell("gunrock_bfs", Kind::GunrockBfs),
            cell("groute_bfs", Kind::GrouteBfs),
        ],
        steal_pairs: &[
            ("atos_bfs_owner", "atos_bfs_steal"),
            ("atos_sssp_priority", "atos_sssp_steal"),
        ],
        k2_cell: None,
        sweep_t2: true,
        trace_cell: Some("atos_bfs_owner"),
        probe: false,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    fn fabric(&self) -> Fabric {
        if self.ib {
            Fabric::ib_cluster(N_GPUS)
        } else {
            Fabric::daisy(N_GPUS)
        }
    }

    fn index_of(&self, name: &str) -> usize {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("{} has no cell {name}", self.name))
    }
}

/// What one cell did across the run.
pub struct CellRecord {
    pub cell: Cell,
    /// Stats of each run in the first repeat (one per input instance, or
    /// per source of each for traversals); later repeats must match them
    /// exactly.
    pub stats: Option<Vec<RunStats>>,
    /// Host seconds of each repeat's call.
    pub host_s: Vec<f64>,
    /// Passed every oracle and determinism check, and never aborted.
    pub ok: bool,
}

impl CellRecord {
    /// Fold one execution of the cell into the record.
    /// `sharded` marks a run on more than one engine shard.
    fn absorb(
        &mut self,
        result: std::thread::Result<Vec<(RunStats, Output)>>,
        oracles: &Oracles,
        sharded: bool,
    ) {
        let Ok(runs) = result else {
            self.ok = false;
            return;
        };
        let (stats, outs): (Vec<RunStats>, Vec<Output>) = runs.into_iter().unzip();
        self.ok &= outs
            .iter()
            .enumerate()
            .all(|(i, out)| oracles.check(i, out));
        match &self.stats {
            Some(first) => self.ok &= fingerprint(first, sharded) == fingerprint(&stats, sharded),
            None => self.stats = Some(stats),
        }
    }

    /// Virtual ms summed over the cell's runs.
    pub fn virtual_ms(&self) -> f64 {
        self.stats.iter().flatten().map(RunStats::elapsed_ms).sum()
    }
}

/// Everything a run measured.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub records: Vec<CellRecord>,
    pub probe: Option<probe::Outcome>,
}

impl RunResult {
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    /// Every cell passed its checks and the probe, if it finished, was right.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.probe != Some(probe::Outcome::Wrong)
    }
}

/// Run `wl` under `seed` for at least `seconds` of repeats.
pub fn run(wl: &Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let preset = Preset::by_name(wl.preset).expect("workload names a Table I preset");
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (inp, times) = set_up(preset, N_GPUS, wl.partitioning, wl.weighted, seed);
        setups.push(times);
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one set-up");
    let (oracles, reference_s) = Oracles::compute(wl.cells, &inp);

    let mut records: Vec<CellRecord> = wl
        .cells
        .iter()
        .map(|&cell| CellRecord {
            cell,
            stats: None,
            host_s: Vec::new(),
            ok: true,
        })
        .collect();
    // Per repeat: host seconds outside the cells' calls.
    let mut residual = Vec::new();
    let start = Instant::now();
    while residual.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut outside = 0.0;
        for rec in records.iter_mut() {
            let t0 = Instant::now();
            let fabric = wl.fabric();
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| rec.cell.run(&inp, &fabric, 1)));
            let host = t.elapsed().as_secs_f64();
            outside += t0.elapsed().as_secs_f64() - host;
            rec.host_s.push(host);
            // Checked untimed, before the next call, so that only one
            // cell's results are held at a time.
            rec.absorb(result, &oracles, false);
        }
        residual.push(outside);
    }
    let fps: Vec<(&str, String)> = records
        .iter()
        .filter_map(|r| Some((r.cell.name, fingerprint(r.stats.as_deref()?, false))))
        .collect();
    for (name, same) in report::cross_run_check(wl.name, seed, &fps) {
        if !same {
            records[wl.index_of(name)].ok = false;
        }
    }

    // Each cell's median over the repeats, so a burst of host noise in one
    // repeat moves no cell's time, plus the median time between calls.
    let wall_s = host_s(&records, true) + host_s(&records, false) + median(&residual);
    let mut metrics = Vec::new();
    let mut probe_outcome = None;
    if !trace {
        if wl.probe {
            probe_outcome = Some(probe::attempt());
        }
        let attempted = records.len() + usize::from(probe_outcome.is_some());
        let passed = records.iter().filter(|r| r.ok).count()
            + usize::from(probe_outcome == Some(probe::Outcome::Passed));
        let setup_s = median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>());
        metrics.push(Metric::new("wall_s", wall_s, "s"));
        metrics.push(Metric::new("setup_s", setup_s, "s"));
        metrics.push(Metric::new("virtual_ms", virtual_ms(&records, true), "ms"));
        metrics.push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"));
        metrics.push(Metric::new(
            "pass_frac",
            passed as f64 / attempted as f64,
            "ratio",
        ));
    } else {
        let layer = LayerTimes {
            setups: &setups,
            reference_s,
            residual: &residual,
            wall_s,
        };
        metrics = per_layer(wl, &inp, &oracles, &mut records, &layer);
    }
    RunResult {
        metrics,
        records,
        probe: probe_outcome,
    }
}

/// Summed median host seconds of the Atos cells (`atos`) or of the
/// baselines.
fn host_s(records: &[CellRecord], atos: bool) -> f64 {
    records
        .iter()
        .filter(|r| r.cell.is_atos() == atos)
        .fold(0.0, |sum, r| sum + median(&r.host_s))
}

/// Summed virtual ms of the Atos cells (`atos`) or of the baselines.
fn virtual_ms(records: &[CellRecord], atos: bool) -> f64 {
    records
        .iter()
        .filter(|r| r.cell.is_atos() == atos)
        .fold(0.0, |sum, r| sum + r.virtual_ms())
}

/// Host times the timed repeats and the set-up collected.
struct LayerTimes<'a> {
    setups: &'a [SetupTimes],
    reference_s: f64,
    residual: &'a [f64],
    wall_s: f64,
}

/// The traced run's per-layer metrics: the repeats' layer times and
/// counters, plus the trace-only re-runs (engine floor, K=2 shards,
/// two sweep workers, trace overhead), whose results are checked like
/// the timed cells'.
fn per_layer(
    wl: &Workload,
    inp: &[Inputs],
    oracles: &Oracles,
    records: &mut [CellRecord],
    t: &LayerTimes,
) -> Vec<Metric> {
    let setup = |f: fn(&SetupTimes) -> f64| median(&t.setups.iter().map(f).collect::<Vec<_>>());
    let atos: Vec<&RunStats> = records
        .iter()
        .filter(|r| r.cell.is_atos())
        .filter_map(|r| r.stats.as_ref())
        .flatten()
        .collect();
    let sum = |f: fn(&RunStats) -> u64| atos.iter().map(|s| f(s)).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let events = sum(|s| s.sim_events);
    let peak_pending = atos
        .iter()
        .map(|s| s.peak_pending_events)
        .max()
        .unwrap_or(0);
    let messages = sum(|s| s.messages);
    let tasks = sum(RunStats::total_tasks);
    let edges = sum(RunStats::total_edges);
    let runtime_s = host_s(records, true);
    let busy = sum(|s| s.busy_ns_per_pe.iter().sum());
    let capacity = sum(|s| s.elapsed_ns * s.busy_ns_per_pe.len() as u64);
    let ideal: u64 = records
        .iter()
        .filter(|r| r.cell.is_atos() && r.stats.is_some())
        .map(|r| oracles.ideal_tasks(r.cell.kind))
        .sum();
    let flushes = sum(|s| s.agg_flushes);
    let vms = |name: &str| records[wl.index_of(name)].virtual_ms();
    let (owner_vms, steal_vms) = wl
        .steal_pairs
        .iter()
        .fold((0.0, 0.0), |(o, s), (a, b)| (o + vms(a), s + vms(b)));

    let mut m = vec![
        Metric::new("graph.build_s", setup(|s| s.build_s), "s"),
        Metric::new("graph.partition_s", setup(|s| s.partition_s), "s"),
        Metric::new("graph.weights_s", setup(|s| s.weights_s), "s"),
        Metric::new("graph.reference_s", t.reference_s, "s"),
        Metric::new("sim.engine.events", events, "count"),
        Metric::new("sim.engine.peak_pending", peak_pending as f64, "count"),
        Metric::new(
            "sim.engine.floor_ns_per_event",
            engine_floor_ns_per_event(events as u64, peak_pending),
            "ns",
        ),
        Metric::new("sim.fabric.messages", messages, "count"),
        Metric::new("sim.fabric.wire_bytes", sum(|s| s.wire_bytes), "bytes"),
        Metric::new(
            "sim.fabric.mean_msg_bytes",
            ratio(sum(|s| s.payload_bytes), messages),
            "bytes",
        ),
        Metric::new("core.runtime.run_s", runtime_s, "s"),
        Metric::new(
            "core.runtime.ns_per_event",
            ratio(runtime_s * 1e9, events),
            "ns",
        ),
        Metric::new("core.runtime.steps", sum(|s| s.ev_steps), "count"),
        Metric::new("core.runtime.arrivals", sum(|s| s.ev_arrivals), "count"),
        Metric::new(
            "core.runtime.coalesced_arrivals",
            sum(|s| s.coalesced_arrivals),
            "count",
        ),
        Metric::new("core.runtime.utilization", ratio(busy, capacity), "ratio"),
        Metric::new("apps.tasks", tasks, "count"),
        Metric::new("apps.edges", edges, "count"),
        Metric::new("apps.ns_per_edge", ratio(runtime_s * 1e9, edges), "ns"),
        Metric::new("apps.useful_frac", ratio(ideal as f64, tasks), "ratio"),
        Metric::new("core.aggregator.flushes", flushes, "count"),
        Metric::new(
            "core.aggregator.flushed_tasks",
            sum(|s| s.agg_flushed_tasks),
            "count",
        ),
        Metric::new(
            "core.aggregator.age_flush_frac",
            ratio(sum(|s| s.agg_flushes_age), flushes),
            "ratio",
        ),
        Metric::new(
            "core.aggregator.idle_poll_frac",
            ratio(sum(|s| s.agg_poll_idle), sum(|s| s.ev_agg_polls)),
            "ratio",
        ),
        Metric::new("core.loadbalance.steals", sum(|s| s.lb_steals), "count"),
        Metric::new(
            "core.loadbalance.stolen_tasks",
            sum(|s| s.lb_stolen_tasks),
            "count",
        ),
        Metric::new(
            "core.loadbalance.stolen_edges",
            sum(|s| s.lb_stolen_edges),
            "count",
        ),
        Metric::new(
            "core.loadbalance.virtual_gain",
            if wl.steal_pairs.is_empty() {
                1.0
            } else {
                ratio(owner_vms, steal_vms)
            },
            "ratio",
        ),
        Metric::new("baselines.run_s", host_s(records, false), "s"),
        Metric::new("baselines.virtual_ms", virtual_ms(records, false), "ms"),
        Metric::new("unattributed_s", median(t.residual), "s"),
    ];

    let (overhead, trace_events) = match wl.trace_cell {
        Some(name) => trace_overhead(wl, inp, oracles, &mut records[wl.index_of(name)]),
        None => (0.0, 0.0),
    };
    m.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
    m.push(Metric::new("trace.events", trace_events, "count"));
    let k2 = match wl.k2_cell {
        Some(name) => k2_speedup(wl, inp, oracles, &mut records[wl.index_of(name)]),
        None => 0.0,
    };
    m.push(Metric::new("core.sharded.k2_speedup", k2, "ratio"));
    let t2 = if wl.sweep_t2 {
        sweep_t2_speedup(wl, inp, oracles, records, t.wall_s)
    } else {
        0.0
    };
    m.push(Metric::new("bench.sweep.t2_speedup", t2, "ratio"));
    m
}

/// Host ns per event of draining `events` events through a bare
/// [`Engine`] held at `depth` pending events: the least any engine-bound
/// run of that size can cost, so the most an engine change can save.
fn engine_floor_ns_per_event(events: u64, depth: u64) -> f64 {
    if events == 0 {
        return 0.0;
    }
    // Xorshift delays of 1..=4096 ns: message and step latencies span
    // the engine's finest wheel levels the same way.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + (x & 4095)
    };
    let mut engine: Engine<u64> = Engine::with_capacity(depth as usize);
    for i in 0..depth.min(events) {
        engine.schedule_at(delay(), i);
    }
    let t = Instant::now();
    let mut popped = 0u64;
    while let Some((_, ev)) = engine.pop() {
        popped += 1;
        if popped + (engine.pending() as u64) < events {
            engine.schedule_in(delay(), ev);
        }
    }
    let ns = t.elapsed().as_secs_f64() * 1e9;
    std::hint::black_box(popped);
    ns / popped as f64
}

/// `run_bfs_traced` with a [`TraceBuffer`] from each source of each
/// instance against the untraced cell: the overhead as a share of the untraced median, and the
/// events recorded. The traced runs must reproduce the cell's stats and
/// depths.
fn trace_overhead(
    wl: &Workload,
    inp: &[Inputs],
    oracles: &Oracles,
    rec: &mut CellRecord,
) -> (f64, f64) {
    let Kind::AtosBfs(cfg) = rec.cell.kind else {
        panic!("trace cell {} is not an Atos BFS cell", rec.cell.name);
    };
    let mut buf = TraceBuffer::new();
    let fabric = wl.fabric();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut runs = Vec::new();
        for instance in inp {
            for &src in &instance.sources {
                let r = run_bfs_traced(
                    instance.graph.clone(),
                    instance.partition.clone(),
                    src,
                    fabric.clone(),
                    cfg,
                    &mut buf,
                );
                runs.push((r.stats, Output::Depth(r.depth)));
            }
        }
        runs
    }));
    let traced_s = t.elapsed().as_secs_f64();
    rec.absorb(result, oracles, false);
    (traced_s / median(&rec.host_s) - 1.0, buf.len() as f64)
}

/// The cell on two engine shards: its K=1 median over the K=2 time. The
/// sharded run must reproduce the cell's stats and pass its oracle.
fn k2_speedup(wl: &Workload, inp: &[Inputs], oracles: &Oracles, rec: &mut CellRecord) -> f64 {
    let fabric = wl.fabric();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| rec.cell.run(inp, &fabric, 2)));
    let k2_s = t.elapsed().as_secs_f64();
    rec.absorb(result, oracles, true);
    median(&rec.host_s) / k2_s
}

/// Every cell through a two-worker [`SweepRunner`]: the serial repeat's
/// median over the parallel sweep's time. Each cell must reproduce its
/// serial stats and pass its oracle.
fn sweep_t2_speedup(
    wl: &Workload,
    inp: &[Inputs],
    oracles: &Oracles,
    records: &mut [CellRecord],
    serial_s: f64,
) -> f64 {
    let t = Instant::now();
    let results = SweepRunner::new(2).run(wl.cells, |_, cell| {
        let fabric = wl.fabric();
        catch_unwind(AssertUnwindSafe(|| cell.run(inp, &fabric, 1)))
    });
    let sweep_s = t.elapsed().as_secs_f64();
    for (rec, result) in records.iter_mut().zip(results) {
        rec.absorb(result, oracles, false);
    }
    serial_s / sweep_s
}
