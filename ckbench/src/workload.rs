//! The three closed-loop workloads and the loop that drives them.
//!
//! One caller (the "trainer") issues each engine call only after the
//! previous one returned. Every workload runs the same cycle:
//!
//! 1. full `save` of one of two pre-built state generations (they
//!    alternate, so every save writes new bytes);
//! 2. `deltas_per_cycle` calls of `save_delta`, each flipping one worker
//!    (in seed-rotated order) to its other generation;
//! 3. `load` with every node alive (the Resend workflow);
//! 4. crash and replace one data node and one parity node (seeded), then
//!    `load` again (the Decode workflow).
//!
//! Every load is compared bit-for-bit with the state last saved (the
//! delta-composed state) and must report the expected workflow; every
//! save's traffic must equal the m·s·W closed form and every delta's the
//! `region·(1 + m)` one. The workloads differ in the plane and in how
//! many deltas a cycle holds; see `ckbench/README.md`.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecc_checkpoint::StateDict;
use ecc_cluster::{Cluster, ClusterSpec, DataPlane, SharedPlane};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use ecc_net::{CheckpointServer, RemotePlane, ServerConfig};
use ecc_telemetry::Recorder;
use ecc_trace::{Span, Tracer, TrackId};
use eccheck::store::{DrainHandle, Drainer};
use eccheck::{EcCheck, EcCheckConfig, RecoveryWorkflow, WorkerDirtySet};

use crate::probe::{Probe, Scope};
use crate::stats::cpu_seconds;

/// Data chunks.
pub const K: usize = 2;
/// Parity chunks.
pub const M: usize = 2;
/// Engine packet size.
pub const PACKET: usize = 64 << 10;
/// Coding threads the engine is configured with.
pub const CODING_THREADS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Untimed set-ups before those: the first ones pay one-off costs
/// (page faults on fresh heap, thread stacks, listener sockets) that
/// later ones do not.
pub const SETUP_WARM_UP: usize = 2;
/// Delta saves per cycle on `mem-delta`.
pub const MEM_DELTA_DELTAS: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory `Cluster`: the pure CPU path.
    MemFull,
    /// The same loop through `RemotePlane` to an in-process
    /// `CheckpointServer` on loopback.
    TcpFull,
    /// Long runs of 1-of-8 delta saves with a tier-1 drain worker.
    MemDelta,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::MemFull, Workload::TcpFull, Workload::MemDelta];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemFull => "mem-full",
            Workload::TcpFull => "tcp-full",
            Workload::MemDelta => "mem-delta",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Delta saves between a cycle's full save and its loads.
    pub fn deltas_per_cycle(self) -> usize {
        match self {
            Workload::MemDelta => MEM_DELTA_DELTAS,
            Workload::MemFull | Workload::TcpFull => 1,
        }
    }

    /// The engine configuration: the paper's defaults at k = m = 2,
    /// w = 8, 64 KiB packets and 2 coding threads, remote flush off.
    /// Executor, schedule and kernel stay at the engine's defaults.
    pub fn config(self) -> EcCheckConfig {
        let cfg = EcCheckConfig::paper_defaults()
            .with_km(K, M)
            .with_width(8)
            .with_packet_size(PACKET)
            .with_coding_threads(CODING_THREADS)
            .with_remote_flush_every(0);
        match self {
            Workload::MemDelta => cfg.with_retain_last(2),
            Workload::MemFull | Workload::TcpFull => cfg,
        }
    }
}

/// The cluster shape: 4 nodes × 2 GPUs.
pub fn cluster_spec() -> ClusterSpec {
    ClusterSpec::tiny_test(4, 2)
}

/// The benchmark's model: GPT-2 at hidden 128, 4 heads, 4 layers,
/// vocabulary 4096, sequence 128 (37.9 MB of tensors over 8 workers).
pub fn gpt2_model() -> ModelConfig {
    ModelConfig::gpt2(128, 4, 4).with_vocab(4096).with_seq_len(128)
}

/// SplitMix64: the benchmark's seeded source of choices.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// The two state generations a run alternates between.
pub struct Inputs {
    /// Generation 0 and 1 of every worker's `state_dict`.
    pub gens: [Vec<StateDict>; 2],
    /// Tensor bytes of one generation (one checkpoint).
    pub tensor_bytes: u64,
}

impl Inputs {
    /// Builds both generations of `model` on `spec`'s world with TP=PP=DP=2,
    /// their tensor contents drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the model does not divide over the grid.
    pub fn build(model: ModelConfig, spec: &ClusterSpec, seed: u64) -> Self {
        let par = ParallelismSpec::new(2, 2, 2).expect("TP=PP=DP=2 is a valid grid");
        assert_eq!(par.world_size(), spec.world_size(), "grid must match the cluster");
        let mut rng = SeedRng::new(seed);
        let gens = [0u64, 1].map(|g| {
            let sd = StateDictSpec {
                iteration: 1000 + g,
                seed: rng.next_u64(),
                ..StateDictSpec::new(model, par)
            };
            (0..par.world_size())
                .map(|w| build_worker_state_dict(&sd, w).expect("benchmark model fits the grid"))
                .collect::<Vec<_>>()
        });
        let tensor_bytes = gens[0].iter().map(|d| d.tensor_bytes() as u64).sum();
        Self { gens, tensor_bytes }
    }
}

/// A plane the benchmark can crash nodes on.
pub trait Admin: DataPlane {
    /// Fails `node` (its memory is lost) and brings an empty
    /// replacement online.
    fn crash_and_replace(&mut self, node: usize);
}

impl Admin for Cluster {
    fn crash_and_replace(&mut self, node: usize) {
        self.fail_node(node);
        self.replace_node(node);
    }
}

impl Admin for SharedPlane<Cluster> {
    fn crash_and_replace(&mut self, node: usize) {
        self.lock().crash_and_replace(node);
    }
}

impl Admin for RemotePlane {
    fn crash_and_replace(&mut self, node: usize) {
        self.fail_node(node).expect("server fails a node on request");
        self.replace_node(node).expect("server replaces a node on request");
    }
}

impl<P: Admin> Admin for Probe<P> {
    fn crash_and_replace(&mut self, node: usize) {
        self.inner_mut().crash_and_replace(node);
    }
}

fn resident_bytes(cluster: &Cluster) -> u64 {
    (0..cluster.spec().nodes()).map(|n| cluster.mem_used(n)).sum()
}

/// One workload's engine, plane and helpers.
pub struct Bed<P: Admin> {
    /// The engine.
    pub ecc: EcCheck,
    /// The engine's plane, wrapped in the probe.
    pub probe: Probe<P>,
    resident: Box<dyn Fn(&P) -> u64>,
    /// `mem-delta`: the drain worker and a handle onto tier 0/1.
    drain: Option<(Drainer, SharedPlane<Cluster>)>,
    /// `tcp-full`: the server behind the plane.
    server: Option<CheckpointServer<Cluster>>,
}

impl<P: Admin> Bed<P> {
    /// Tier-0 resident bytes summed over nodes.
    pub fn resident_bytes(&self) -> u64 {
        (self.resident)(self.probe.inner())
    }

    /// The tier-0/tier-1 cluster the drain worker copies over, if any.
    pub fn tier_plane(&self) -> Option<&SharedPlane<Cluster>> {
        self.drain.as_ref().map(|(_, plane)| plane)
    }

    fn drain_handle(&self) -> Option<DrainHandle> {
        self.drain.as_ref().map(|(d, _)| d.handle())
    }

    /// Stops the drain worker and the server, joining their threads.
    pub fn shutdown(self) {
        let Bed { ecc, probe, drain, server, .. } = self;
        drop(ecc);
        drop(probe);
        if let Some((drainer, _)) = drain {
            drainer.shutdown();
        }
        if let Some(server) = server {
            server.shutdown();
        }
    }
}

/// In-memory cluster.
pub fn setup_mem(spec: &ClusterSpec, cfg: EcCheckConfig) -> Bed<Cluster> {
    let probe = Probe::new(Cluster::new(*spec));
    let ecc = EcCheck::initialize(spec, cfg).expect("benchmark config is valid");
    Bed { ecc, probe, resident: Box::new(resident_bytes), drain: None, server: None }
}

/// Loopback server over a cluster, reached through `RemotePlane`.
pub fn setup_tcp(spec: &ClusterSpec, cfg: EcCheckConfig) -> Bed<RemotePlane> {
    let server = CheckpointServer::serve(
        Cluster::new(*spec),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("loopback bind succeeds");
    let plane =
        RemotePlane::connect(&server.local_addr().to_string()).expect("loopback connect succeeds");
    let ecc = EcCheck::initialize(spec, cfg).expect("benchmark config is valid");
    let served = server.plane();
    let resident =
        move |_: &RemotePlane| resident_bytes(&served.lock().expect("server plane lock poisoned"));
    Bed {
        ecc,
        probe: Probe::new(plane),
        resident: Box::new(resident),
        drain: None,
        server: Some(server),
    }
}

/// In-memory cluster shared with a tier-1 drain worker. The worker's
/// plane calls are counted under [`Scope::Drain`].
pub fn setup_delta(spec: &ClusterSpec, cfg: EcCheckConfig) -> Bed<SharedPlane<Cluster>> {
    let shared = SharedPlane::new(Cluster::new(*spec));
    let probe = Probe::new(shared.clone());
    let drain_plane = Probe::sharing(shared.clone(), probe.stats(), Scope::Drain);
    let mut ecc = EcCheck::initialize(spec, cfg).expect("benchmark config is valid");
    let drainer = Drainer::spawn(drain_plane, 4, ecc.recorder().clone());
    ecc.set_drainer(drainer.handle());
    let resident = |s: &SharedPlane<Cluster>| resident_bytes(&s.lock());
    Bed { ecc, probe, resident: Box::new(resident), drain: Some((drainer, shared)), server: None }
}

/// Runs a whole set-up — `inputs` (both seeded state generations) and
/// then `setup` (plane, server, engine, drain worker) — [`SETUP_WARM_UP`]
/// times untimed, then [`SETUP_REPS`] times timed; returns the last
/// inputs and bed and the timed set-ups in seconds. Earlier ones are
/// dropped and shut down untimed, before the next set-up starts.
pub fn timed_setup<P: Admin>(
    inputs: impl Fn() -> Inputs,
    setup: impl Fn() -> Bed<P>,
) -> (Inputs, Bed<P>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_WARM_UP + SETUP_REPS {
        if let Some((old_inputs, old_bed)) = last.take() {
            drop(old_inputs);
            Bed::shutdown(old_bed);
        }
        let t = Instant::now();
        let made = (inputs(), setup());
        if rep >= SETUP_WARM_UP {
            times.push(t.elapsed().as_secs_f64());
        }
        last = Some(made);
    }
    let (inputs, bed) = last.expect("at least one set-up");
    (inputs, bed, times)
}

/// What the loop measured.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Wall seconds per full `save`.
    pub save_s: Vec<f64>,
    /// Wall seconds per `save_delta`.
    pub delta_s: Vec<f64>,
    /// Wall seconds per no-failure `load`.
    pub resend_s: Vec<f64>,
    /// Wall seconds per `load` after losing a data and a parity node.
    pub decode_s: Vec<f64>,
    /// Process CPU seconds during each save.
    pub save_cpu_s: Vec<f64>,
    /// Process CPU seconds during each load.
    pub load_cpu_s: Vec<f64>,
    /// Seconds from a save's return until the drain worker has copied it.
    pub drain_lag_s: Vec<f64>,
    /// Tier-0 resident bytes right after the latest full save. Taken at
    /// that point of the cycle because crashes drop older retained
    /// versions from the replaced nodes until the next save collects them.
    pub resident_bytes: u64,
    /// Packed dirty-region bytes over all delta saves.
    pub delta_region_bytes: u64,
    /// Tensor bytes the delta saves checkpointed.
    pub delta_tensor_bytes: u64,
    /// Process CPU seconds spent inside the measured loop.
    pub loop_cpu_s: f64,
    /// Engine calls made.
    pub attempted: u64,
    /// Engine calls that failed or returned wrong results.
    pub failed: u64,
    /// What went wrong, for the first few failures.
    pub errors: Vec<String>,
}

impl Samples {
    /// Appends `other`'s samples and totals.
    pub fn merge(&mut self, other: &Samples) {
        self.save_s.extend_from_slice(&other.save_s);
        self.delta_s.extend_from_slice(&other.delta_s);
        self.resend_s.extend_from_slice(&other.resend_s);
        self.decode_s.extend_from_slice(&other.decode_s);
        self.save_cpu_s.extend_from_slice(&other.save_cpu_s);
        self.load_cpu_s.extend_from_slice(&other.load_cpu_s);
        self.drain_lag_s.extend_from_slice(&other.drain_lag_s);
        if other.resident_bytes > 0 {
            self.resident_bytes = other.resident_bytes;
        }
        self.delta_region_bytes += other.delta_region_bytes;
        self.delta_tensor_bytes += other.delta_tensor_bytes;
        self.loop_cpu_s += other.loop_cpu_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().cloned());
    }

    /// Whether every kind of engine call has at least one sample.
    pub fn has_every_call(&self) -> bool {
        [&self.save_s, &self.delta_s, &self.resend_s, &self.decode_s].iter().all(|v| !v.is_empty())
    }

    /// Every load's wall seconds, Resend and Decode.
    pub fn loads(&self) -> Vec<f64> {
        let mut all = self.resend_s.clone();
        all.extend_from_slice(&self.decode_s);
        all
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// The trainer: walks the cycle one engine call at a time, so a run can
/// be split into an untraced and a traced part without losing its place.
pub struct Trainer<'a> {
    inputs: &'a Inputs,
    deltas_per_cycle: usize,
    current: Vec<StateDict>,
    gen_of: Vec<usize>,
    order: Vec<usize>,
    rng: SeedRng,
    cycle: u64,
    pos: usize,
    deltas: usize,
    drain_watch: Option<JoinHandle<Duration>>,
    trace: Option<(Tracer, TrackId)>,
    /// Bytes per data chunk, known after the first save.
    pub chunk_len: usize,
    /// The first crash pattern: (data chunk index, parity chunk index).
    pub failure: (usize, usize),
}

impl<'a> Trainer<'a> {
    /// A trainer over `inputs`; `seed` sets the dirty-worker order and
    /// the crashed nodes.
    pub fn new(inputs: &'a Inputs, deltas_per_cycle: usize, seed: u64) -> Self {
        let world = inputs.gens[0].len();
        let mut rng = SeedRng::new(seed ^ 0x0C4E_C4B0_5EED);
        let order = rng.permutation(world);
        let mut peek = rng.clone();
        let failure = (peek.below(K), peek.below(M));
        Self {
            inputs,
            deltas_per_cycle,
            current: inputs.gens[0].clone(),
            gen_of: vec![0; world],
            order,
            rng,
            cycle: 0,
            pos: 0,
            deltas: 0,
            drain_watch: None,
            trace: None,
            chunk_len: 0,
            failure,
        }
    }

    /// Emits a span per engine call on `track` from now on.
    pub fn set_tracer(&mut self, tracer: &Tracer, track: TrackId) {
        self.trace = Some((tracer.clone(), track));
    }

    fn span(&self, name: &str) -> Option<Span> {
        self.trace.as_ref().map(|(t, track)| t.span(*track, name, format!("cycle={}", self.cycle)))
    }

    /// Issues engine calls back to back until `budget` has passed and
    /// every kind of call has a sample (unless calls are failing),
    /// running `between` after each.
    pub fn run_for<P: Admin>(
        &mut self,
        bed: &mut Bed<P>,
        budget: Duration,
        s: &mut Samples,
        mut between: impl FnMut(),
    ) {
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        while start.elapsed() < budget || (!s.has_every_call() && s.failed == 0) {
            self.step(bed, s);
            between();
        }
        s.loop_cpu_s += cpu_seconds() - cpu0;
    }

    /// Issues the engine calls of one whole cycle.
    pub fn run_cycle<P: Admin>(&mut self, bed: &mut Bed<P>, s: &mut Samples) {
        let cycle = self.cycle;
        while self.cycle == cycle {
            self.step(bed, s);
        }
    }

    /// Joins the drain watcher, if one is running.
    pub fn finish(&mut self, s: &mut Samples) {
        if let Some(watch) = self.drain_watch.take() {
            s.drain_lag_s.push(watch.join().expect("drain watcher panicked").as_secs_f64());
        }
    }

    fn step<P: Admin>(&mut self, bed: &mut Bed<P>, s: &mut Samples) {
        let d = self.deltas_per_cycle;
        match self.pos {
            0 => self.save(bed, s),
            p if p <= d => self.delta(bed, s),
            p if p == d + 1 => {
                self.finish(s);
                self.load(bed, s, RecoveryWorkflow::Resend);
            }
            _ => {
                let data = bed.ecc.placement().data_nodes()[self.rng.below(K)];
                let parity = bed.ecc.placement().parity_nodes()[self.rng.below(M)];
                let span = self.span("bench.crash");
                bed.probe.crash_and_replace(data);
                bed.probe.crash_and_replace(parity);
                drop(span);
                self.load(bed, s, RecoveryWorkflow::Decode);
            }
        }
        self.pos += 1;
        if self.pos > d + 2 {
            self.pos = 0;
            self.cycle += 1;
        }
    }

    fn save<P: Admin>(&mut self, bed: &mut Bed<P>, s: &mut Samples) {
        let g = (self.cycle % 2) as usize;
        self.current.clone_from(&self.inputs.gens[g]);
        self.gen_of.fill(g);
        if let Some(tier) = bed.tier_plane() {
            // Tier 1 is append-only; empty it between cycles (the
            // previous version's drain has been joined) to bound memory.
            tier.lock().wipe_remote();
        }
        bed.probe.set_scope(Scope::Save);
        let span = self.span("bench.save");
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let result = bed.ecc.save(&mut bed.probe, &self.current);
        let secs = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        drop(span);
        bed.probe.set_scope(Scope::Other);
        if let Some(handle) = bed.drain_handle() {
            let saved = Instant::now();
            self.drain_watch = Some(std::thread::spawn(move || {
                handle.flush();
                saved.elapsed()
            }));
        }
        s.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => return s.fail(format!("save: {e}")),
        };
        let world = self.current.len() as u64;
        let per_worker = (report.packets_per_worker * report.packet_size) as u64;
        if report.traffic.total() != M as u64 * per_worker * world {
            return s.fail(format!(
                "save v{}: traffic {} != m·s·W = {}",
                report.version,
                report.traffic.total(),
                M as u64 * per_worker * world
            ));
        }
        self.chunk_len = per_worker as usize * self.current.len() / K;
        s.resident_bytes = bed.resident_bytes();
        s.save_s.push(secs);
        s.save_cpu_s.push(cpu);
    }

    fn delta<P: Admin>(&mut self, bed: &mut Bed<P>, s: &mut Samples) {
        let w = self.order[self.deltas % self.order.len()];
        self.deltas += 1;
        let g = 1 - self.gen_of[w];
        self.current[w].clone_from(&self.inputs.gens[g][w]);
        self.gen_of[w] = g;
        let dirty = [WorkerDirtySet { worker: w, state: &self.current[w] }];
        bed.probe.set_scope(Scope::Delta);
        let span = self.span("bench.delta");
        let t = Instant::now();
        let result = bed.ecc.save_delta(&mut bed.probe, &dirty);
        let secs = t.elapsed().as_secs_f64();
        drop(span);
        bed.probe.set_scope(Scope::Other);
        s.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => return s.fail(format!("delta worker {w}: {e}")),
        };
        if report.region_bytes == 0 || report.traffic_bytes != report.region_bytes * (1 + M as u64)
        {
            return s.fail(format!(
                "delta worker {w}: traffic {} != region {} · (1 + m)",
                report.traffic_bytes, report.region_bytes
            ));
        }
        s.delta_region_bytes += report.region_bytes;
        s.delta_tensor_bytes += self.current[w].tensor_bytes() as u64;
        s.delta_s.push(secs);
    }

    fn load<P: Admin>(&mut self, bed: &mut Bed<P>, s: &mut Samples, expect: RecoveryWorkflow) {
        bed.probe.set_scope(Scope::Load);
        let span = self.span(match expect {
            RecoveryWorkflow::Decode => "bench.load.decode",
            _ => "bench.load.resend",
        });
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let result = bed.ecc.load(&mut bed.probe);
        let secs = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        drop(span);
        bed.probe.set_scope(Scope::Other);
        s.attempted += 1;
        let (restored, report) = match result {
            Ok(r) => r,
            Err(e) => return s.fail(format!("load ({expect:?}): {e}")),
        };
        if report.workflow != expect {
            return s.fail(format!("load took {:?}, expected {expect:?}", report.workflow));
        }
        if restored != self.current {
            return s.fail(format!("load ({expect:?}) of v{} is not bit-exact", report.version));
        }
        match expect {
            RecoveryWorkflow::Decode => s.decode_s.push(secs),
            _ => s.resend_s.push(secs),
        }
        s.load_cpu_s.push(cpu);
    }
}

/// Times `store::drain_version` of the newest version over the drain
/// plane `reps` times; returns the MB/s samples and empties tier 1 after.
pub fn drain_rates(bed: &Bed<SharedPlane<Cluster>>, world: usize, reps: usize) -> Vec<f64> {
    let Some(tier) = bed.tier_plane() else { return Vec::new() };
    let version = bed.ecc.version();
    let recorder = Recorder::new();
    let mut plane = tier.clone();
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let outcome = eccheck::store::drain_version(&mut plane, version, world, &recorder)
            .expect("the newest version is sealed on tier 0");
        rates.push(outcome.bytes_copied as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    tier.lock().wipe_remote();
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_inputs(seed: u64) -> Inputs {
        let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
        Inputs::build(model, &cluster_spec(), seed)
    }

    /// Every engine call a cycle makes, issued straight at `plane`.
    fn script<P: Admin>(plane: &mut P, inputs: &Inputs) -> Vec<Vec<StateDict>> {
        let spec = cluster_spec();
        let mut ecc = EcCheck::initialize(&spec, Workload::MemFull.config()).unwrap();
        let mut state = inputs.gens[0].clone();
        let mut restored = Vec::new();
        ecc.save(plane, &state).unwrap();
        state[3].clone_from(&inputs.gens[1][3]);
        ecc.save_delta(plane, &[WorkerDirtySet { worker: 3, state: &state[3] }]).unwrap();
        restored.push(ecc.load(plane).unwrap().0);
        plane.crash_and_replace(ecc.placement().data_nodes()[0]);
        plane.crash_and_replace(ecc.placement().parity_nodes()[1]);
        restored.push(ecc.load(plane).unwrap().0);
        state.clone_from(&inputs.gens[1]);
        ecc.save(plane, &state).unwrap();
        restored.push(ecc.load(plane).unwrap().0);
        restored
    }

    fn blobs(cluster: &Cluster) -> Vec<(usize, String, Option<Vec<u8>>)> {
        (0..cluster.spec().nodes())
            .flat_map(|n| {
                cluster
                    .local_keys(n)
                    .into_iter()
                    .map(move |k| (n, k.clone(), cluster.get_local(n, &k)))
            })
            .collect()
    }

    #[test]
    fn probed_and_bare_planes_end_byte_identical() {
        let inputs = tiny_inputs(5);
        let mut bare = Cluster::new(cluster_spec());
        let mut probed = Probe::new(Cluster::new(cluster_spec()));
        let from_bare = script(&mut bare, &inputs);
        let from_probed = script(&mut probed, &inputs);
        assert_eq!(from_bare, from_probed);
        assert!(!blobs(&bare).is_empty());
        assert_eq!(blobs(&bare), blobs(probed.inner()));
        assert_eq!(resident_bytes(&bare), resident_bytes(probed.inner()));
        let totals = probed.snapshot();
        assert!(totals.get(Scope::Other, crate::probe::Kind::Put).calls > 0);
    }

    fn run_clean<P: Admin>(workload: Workload, bed: &mut Bed<P>, inputs: &Inputs) -> Samples {
        let mut trainer = Trainer::new(inputs, workload.deltas_per_cycle(), 9);
        let mut s = Samples::default();
        while s.decode_s.len() < 2 && s.failed == 0 {
            trainer.run_for(bed, Duration::from_millis(50), &mut s, || {});
        }
        trainer.finish(&mut s);
        assert_eq!(s.failed, 0, "{workload:?}: {:?}", s.errors);
        assert!(s.save_s.len() >= 2 && s.resend_s.len() >= 2 && !s.delta_s.is_empty());
        let totals = bed.probe.snapshot();
        assert!(totals.get(Scope::Save, crate::probe::Kind::Put).bytes > 0);
        assert!(totals.get(Scope::Load, crate::probe::Kind::Get).bytes > 0);
        assert!(totals.get(Scope::Delta, crate::probe::Kind::Get).bytes > 0);
        s
    }

    #[test]
    fn every_workload_cycles_without_a_wrong_restore() {
        let inputs = tiny_inputs(2);
        let spec = cluster_spec();
        let mut mem = setup_mem(&spec, Workload::MemFull.config());
        run_clean(Workload::MemFull, &mut mem, &inputs);
        assert!(mem.resident_bytes() > 0);
        mem.shutdown();

        let mut tcp = setup_tcp(&spec, Workload::TcpFull.config());
        run_clean(Workload::TcpFull, &mut tcp, &inputs);
        assert!(tcp.resident_bytes() > 0);
        tcp.shutdown();

        let mut delta = setup_delta(&spec, Workload::MemDelta.config());
        let s = run_clean(Workload::MemDelta, &mut delta, &inputs);
        assert!(s.delta_s.len() >= MEM_DELTA_DELTAS && !s.drain_lag_s.is_empty());
        assert!(delta.probe.snapshot().get(Scope::Drain, crate::probe::Kind::Put).bytes > 0);
        assert!(drain_rates(&delta, spec.world_size(), 1)[0] > 0.0);
        delta.shutdown();
    }

    #[test]
    fn a_restore_that_differs_from_the_save_is_a_failure() {
        let inputs = tiny_inputs(3);
        let mut bed = setup_mem(&cluster_spec(), Workload::MemFull.config());
        let mut trainer = Trainer::new(&inputs, 1, 4);
        let mut s = Samples::default();
        trainer.step(&mut bed, &mut s); // save
        trainer.step(&mut bed, &mut s); // delta
                                        // Flip the saved state under the engine: the next load restores
                                        // bytes that differ from what the trainer last saved.
        trainer.current[0].clone_from(&inputs.gens[1][0]);
        trainer.step(&mut bed, &mut s); // load
        assert_eq!((s.attempted, s.failed), (3, 1), "{:?}", s.errors);
        assert!(s.errors[0].contains("not bit-exact"));
    }
}
