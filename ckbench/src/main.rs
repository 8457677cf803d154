//! `ckbench`: the end-to-end checkpoint benchmark.
//!
//! ```text
//! ckbench --workload <mem-full|tcp-full|mem-delta> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the real engine through one closed-loop workload (see
//! [`workload`]) for `--seconds`, checks every restore bit-for-bit, and
//! prints as its last stdout line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the seed, the host and the sample counts. A traced run
//! also writes a Chrome trace and the per-layer JSON under `ckbench/out/`.
//! Exits non-zero when any engine call failed or returned wrong bytes.

mod layers;
mod probe;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use ecc_checkpoint::{decompose, Packer};
use ecc_cluster::{Cluster, SharedPlane};
use ecc_gf::kernel::active_kernel;
use ecc_trace::{validate_chrome_trace, DRIVER_PID};

use crate::layers::{layer_rates, LayerRates, Reference};
use crate::probe::{Kind, ProbeStats, Scope};
use crate::stats::{median, peak_rss_mb, tail};
use crate::workload::{
    cluster_spec, drain_rates, gpt2_model, setup_delta, setup_mem, setup_tcp, timed_setup, Admin,
    Bed, Inputs, Samples, Trainer, Workload, K, PACKET,
};

const USAGE: &str =
    "usage: ckbench --workload <mem-full|tcp-full|mem-delta> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ckbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = cluster_spec();
    let cfg = args.workload.config();
    let report = match args.workload {
        Workload::MemFull => run(&args, || setup_mem(&spec, cfg), |_| Extras::default()),
        Workload::TcpFull => run(&args, || setup_tcp(&spec, cfg), tcp_extras),
        Workload::MemDelta => run(&args, || setup_delta(&spec, cfg), delta_extras),
    };
    println!("{}", report.info);
    println!("{}", report.result);
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Workload-specific layer measurements of the traced run.
#[derive(Debug, Default)]
struct Extras {
    /// Median `RemotePlane::ping` round trip, microseconds.
    rtt_us: f64,
    /// `store::drain_version` MB/s samples.
    drain_mb_s: Vec<f64>,
}

fn tcp_extras(bed: &Bed<ecc_net::RemotePlane>) -> Extras {
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = std::time::Instant::now();
        assert!(bed.probe.inner().ping(), "the loopback server answers pings");
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Extras { rtt_us: median(&rtts), ..Extras::default() }
}

fn delta_extras(bed: &Bed<SharedPlane<Cluster>>) -> Extras {
    Extras { drain_mb_s: drain_rates(bed, cluster_spec().world_size(), 3), ..Extras::default() }
}

struct Report {
    info: String,
    result: String,
    failed: u64,
}

/// The chunk length a save of `dicts` produces: k chunks of
/// (workers per chunk) × (most packets any worker needs) packets.
fn expected_chunk_len(dicts: &[ecc_checkpoint::StateDict]) -> usize {
    let packer = Packer::new(PACKET).expect("packet size is valid");
    let ppw = dicts.iter().map(|d| packer.pack(decompose(d).tensor_data()).0.len()).max();
    ppw.expect("world size > 0") * PACKET * dicts.len() / K
}

fn run<P: Admin>(
    args: &Args,
    setup: impl Fn() -> Bed<P>,
    extras: impl FnOnce(&Bed<P>) -> Extras,
) -> Report {
    let spec = cluster_spec();
    let (inputs, mut bed, setup_s) =
        timed_setup(|| Inputs::build(gpt2_model(), &spec, args.seed), setup);
    let chunk_len = expected_chunk_len(&inputs.gens[0]);
    let mut trainer = Trainer::new(&inputs, args.workload.deltas_per_cycle(), args.seed);
    let mut reference = Reference::new(chunk_len, args.seed);
    reference.pass();

    // The first cycle warms allocator, sockets and caches: its calls are
    // checked like every other, but its timings are dropped.
    let mut warm_up = Samples::default();
    trainer.run_cycle(&mut bed, &mut warm_up);
    bed.probe.reset_stats();
    let warm = bed.ecc.recorder().snapshot();

    let budget = Duration::from_secs(args.seconds);
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let tracer = if args.trace {
        // Half the run untraced, half traced: the difference is the
        // tracing overhead; the layer totals cover both halves.
        trainer.run_for(&mut bed, budget / 2, &mut plain, || reference.memcpy_probe());
        let tracer = bed.ecc.attach_tracer();
        trainer.set_tracer(&tracer, tracer.track(DRIVER_PID, "driver", "bench"));
        let plane_track = tracer.track(DRIVER_PID, "driver", "plane");
        bed.probe.set_tracer(&tracer, plane_track);
        trainer.run_for(&mut bed, budget - budget / 2, &mut traced, || reference.memcpy_probe());
        Some(tracer)
    } else {
        trainer.run_for(&mut bed, budget, &mut plain, || reference.memcpy_probe());
        None
    };
    trainer.finish(&mut plain);
    let peak_rss = peak_rss_mb();
    reference.pass();
    let mut all = plain.clone();
    all.merge(&traced);
    all.attempted += warm_up.attempted;
    all.failed += warm_up.failed;
    all.errors.extend(warm_up.errors);
    if trainer.chunk_len != 0 && trainer.chunk_len != chunk_len {
        all.failed += 1;
        all.errors.push(format!("chunk length {} != expected {chunk_len}", trainer.chunk_len));
    }

    let tensor = inputs.tensor_bytes as f64;
    let mb = tensor / 1e6;
    let save_mb_s = mb / median(&plain.save_s);
    let load_mb_s = mb / median(&plain.resend_s);
    let loads = plain.resend_s.len() + plain.decode_s.len();
    let gb_moved =
        ((plain.save_s.len() + loads) as f64 * tensor + plain.delta_tensor_bytes as f64) / 1e9;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(tracer) = &tracer {
        let chrome = tracer.chrome_trace_json();
        if let Err(e) = validate_chrome_trace(&chrome) {
            all.failed += 1;
            all.errors.push(format!("exported trace is malformed: {e}"));
        }
        let rates = layer_rates(&inputs.gens[0], chunk_len, trainer.failure, args.seed);
        let extra = extras(&bed);
        let snapshot = bed.ecc.recorder().snapshot();
        let plane = bed.probe.snapshot();
        let engine = EngineDelta { warm: &warm, now: &snapshot };
        let base = LayerBase { tensor, chunk_len };
        metrics =
            per_layer(&all, &plain, &traced, &plane, &engine, &rates, &reference, &extra, base);
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        let written = std::fs::create_dir_all(&out)
            .and_then(|()| {
                std::fs::write(out.join(format!("{stem}.trace.json")), &chrome)
            })
            .and_then(|()| {
                let layers = format!(
                    "{{\"host\":{},\"seed\":{},\"workload\":\"{}\",\"metrics\":{},\"plane\":{},\"recorder\":{}}}",
                    host_json(),
                    args.seed,
                    args.workload.name(),
                    metrics_json(&metrics),
                    plane_json(&plane),
                    snapshot.to_json()
                );
                std::fs::write(out.join(format!("{stem}.layers.json")), layers)
            });
        if let Err(e) = written {
            eprintln!("ckbench: could not write the trace under {}: {e}", out.display());
        }
    } else {
        let memcpy = reference.memcpy_mb_s();
        metrics.extend([
            ("save_mb_s", save_mb_s, "MB/s"),
            ("load_mb_s", load_mb_s, "MB/s"),
            ("recover_mb_s", mb / median(&plain.decode_s), "MB/s"),
            ("delta_p50_s", median(&plain.delta_s), "s"),
            ("stored_bytes_ratio", plain.resident_bytes as f64 / tensor, "ratio"),
            ("cpu_s_per_gb", plain.loop_cpu_s / gb_moved, "s/GB"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("setup_s", median(&setup_s), "s"),
            ("save_vs_memcpy", save_mb_s / memcpy, "ratio"),
            ("load_vs_memcpy", load_mb_s / memcpy, "ratio"),
        ]);
    }
    bed.shutdown();

    let mut info = String::new();
    let _ = write!(
        info,
        "{{\"ckbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"tensor_bytes\":{},\"chunk_len\":{},\"samples\":{{\"setup\":{},\"save\":{},\"delta\":{},\
         \"resend\":{},\"decode\":{}}},\"tail_percentiles\":{{\"save\":{},\"load\":{},\"delta\":{}}},\
         \"reference_mb_s\":{{\"memcpy\":{},\"crc32\":{},\"mul_xor\":{}}},\"errors\":[{}]}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host_json(),
        inputs.tensor_bytes,
        chunk_len,
        setup_s.len(),
        all.save_s.len(),
        all.delta_s.len(),
        all.resend_s.len(),
        all.decode_s.len(),
        num(tail(&all.save_s).1),
        num(tail(&all.loads()).1),
        num(tail(&all.delta_s).1),
        num(reference.memcpy_mb_s()),
        num(reference.crc_mb_s()),
        num(reference.mul_xor_mb_s()),
        all.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(",")
    );
    eprintln!(
        "ckbench: seconds per call: save {:?} delta {:?} resend {:?} decode {:?} setup {:?}",
        all.save_s, all.delta_s, all.resend_s, all.decode_s, setup_s
    );
    for e in &all.errors {
        eprintln!("ckbench: {e}");
    }
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        all.failed == 0,
        all.attempted.max(1),
        all.failed,
        metrics_json(&metrics)
    );
    Report { info, result, failed: all.failed }
}

struct LayerBase {
    tensor: f64,
    chunk_len: usize,
}

/// The engine's `Recorder` after the warm-up cycle and at the end, so
/// its totals cover the same calls as the samples.
struct EngineDelta<'a> {
    warm: &'a ecc_telemetry::Snapshot,
    now: &'a ecc_telemetry::Snapshot,
}

impl EngineDelta<'_> {
    fn counter(&self, name: &str) -> f64 {
        (self.now.counter(name) - self.warm.counter(name)) as f64
    }

    /// (samples, sum) recorded into histogram `name` since the warm-up.
    fn hist(&self, name: &str) -> (f64, f64) {
        let get =
            |s: &ecc_telemetry::Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let ((c1, s1), (c0, s0)) = (get(self.now), get(self.warm));
        ((c1 - c0) as f64, (s1 - s0) as f64)
    }

    /// Mean of histogram `name` in seconds (it records nanoseconds).
    fn mean_s(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        if count == 0.0 {
            0.0
        } else {
            sum / count / 1e9
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    all: &Samples,
    plain: &Samples,
    traced: &Samples,
    plane: &ProbeStats,
    engine: &EngineDelta<'_>,
    rates: &LayerRates,
    reference: &Reference,
    extra: &Extras,
    base: LayerBase,
) -> Vec<(&'static str, f64, &'static str)> {
    let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
    let saves = all.save_s.len();
    let loads = all.resend_s.len() + all.decode_s.len();
    let put_save = plane.get(Scope::Save, Kind::Put);
    let get_load = plane.get(Scope::Load, Kind::Get);
    let put_load = plane.get(Scope::Load, Kind::Put);
    let delta_get = plane.get(Scope::Delta, Kind::Get);
    let delta_put = plane.get(Scope::Delta, Kind::Put);
    let hist_sum = |name: &str| engine.hist(name).1;

    // Save phases that do not overlap: the pipelined executor reports
    // its encode and place stages overlapped inside `pipeline_ns`.
    let overlapped = match engine.hist("ecc.save.pipeline_ns") {
        (0.0, _) => hist_sum("ecc.save.encode_ns") + hist_sum("ecc.save.place_ns"),
        (_, sum) => sum,
    };
    let phases = hist_sum("ecc.save.decompose_ns")
        + hist_sum("ecc.save.pack_ns")
        + hist_sum("ecc.save.build_chunks_ns")
        + overlapped;
    let save_ns = hist_sum("ecc.save.ns");
    let save_unattributed = if save_ns > 0.0 { 1.0 - phases / save_ns } else { 0.0 };

    // Load: plane time is measured; CRC and decode are replayed from the
    // same-run layer rates over the bytes the loads moved.
    let load_s: f64 = all.resend_s.iter().chain(&all.decode_s).sum();
    let plane_s = plane.scope_ns(Scope::Load) as f64 / 1e9;
    let crc_s = (get_load.bytes + put_load.bytes) as f64 / 1e6 / reference.crc_mb_s();
    let decode_s =
        all.decode_s.len() as f64 * (K * base.chunk_len) as f64 / 1e6 / rates.reconstruct_mb_s;
    let frac = |x: f64| if load_s > 0.0 { x / load_s } else { 0.0 };

    let mb_per_s = |s: &[f64]| if s.is_empty() { 0.0 } else { base.tensor / 1e6 / median(s) };
    let (plain_save, traced_save) = (mb_per_s(&plain.save_s), mb_per_s(&traced.save_s));
    let trace_overhead =
        if plain_save > 0.0 && traced_save > 0.0 { 1.0 - traced_save / plain_save } else { 0.0 };
    let amp = |bytes: u64| per(bytes as f64, all.delta_region_bytes as usize);

    vec![
        ("save_tail_s", tail(&all.save_s).0, "s"),
        ("load_tail_s", tail(&all.loads()).0, "s"),
        ("delta_tail_s", tail(&all.delta_s).0, "s"),
        ("plane.put_calls_per_save", per(put_save.calls as f64, saves), "count"),
        ("plane.put_mb_per_save", per(put_save.bytes as f64 / 1e6, saves), "MB"),
        ("plane.put_s_per_save", per(put_save.ns as f64 / 1e9, saves), "s"),
        ("plane.get_calls_per_load", per(get_load.calls as f64, loads), "count"),
        ("plane.get_mb_per_load", per(get_load.bytes as f64 / 1e6, loads), "MB"),
        ("plane.get_s_per_load", per(get_load.ns as f64 / 1e9, loads), "s"),
        ("plane.put_mb_per_load", per(put_load.bytes as f64 / 1e6, loads), "MB"),
        ("plane.write_amp", per(put_save.bytes as f64 / base.tensor, saves), "ratio"),
        ("net.rtt_us", extra.rtt_us, "us"),
        ("net.codec_mb_s", rates.codec_mb_s, "MB/s"),
        ("checkpoint.decompose_mb_s", rates.decompose_mb_s, "MB/s"),
        ("checkpoint.pack_mb_s", rates.pack_mb_s, "MB/s"),
        ("checkpoint.crc_mb_s", reference.crc_mb_s(), "MB/s"),
        ("erasure.encode_mb_s", rates.encode_mb_s, "MB/s"),
        ("erasure.reconstruct_mb_s", rates.reconstruct_mb_s, "MB/s"),
        ("erasure.parity_delta_mb_s", rates.parity_delta_mb_s, "MB/s"),
        ("erasure.pool_vs_kernel", rates.encode_mb_s / reference.mul_xor_mb_s(), "ratio"),
        ("gf.mul_xor_mb_s", reference.mul_xor_mb_s(), "MB/s"),
        ("ref.memcpy_mb_s", reference.memcpy_mb_s(), "MB/s"),
        ("core.save.decompose_s", engine.mean_s("ecc.save.decompose_ns"), "s"),
        ("core.save.pack_s", engine.mean_s("ecc.save.pack_ns"), "s"),
        ("core.save.build_chunks_s", engine.mean_s("ecc.save.build_chunks_ns"), "s"),
        ("core.save.encode_s", engine.mean_s("ecc.save.encode_ns"), "s"),
        ("core.save.place_s", engine.mean_s("ecc.save.place_ns"), "s"),
        ("core.save.unattributed_frac", save_unattributed, "ratio"),
        ("core.load.plane_frac", frac(plane_s), "ratio"),
        ("core.load.unattributed_frac", 1.0 - frac(plane_s + crc_s + decode_s), "ratio"),
        ("store.drain_mb_s", median(&extra.drain_mb_s), "MB/s"),
        ("store.drain_lag_s", median(&all.drain_lag_s), "s"),
        ("store.gc_collected_per_save", per(engine.counter("ecc.gc.collected"), saves), "count"),
        ("delta.read_amp", amp(delta_get.bytes), "ratio"),
        ("delta.write_amp", amp(delta_put.bytes), "ratio"),
        ("proc.cpu_s_per_save", median(&all.save_cpu_s), "s"),
        ("proc.cpu_s_per_load", median(&all.load_cpu_s), "s"),
        ("trace.overhead_frac", trace_overhead, "ratio"),
        ("error_rate", per(all.failed as f64, all.attempted as usize), "ratio"),
    ]
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"arch\":\"{}\",\"gf_kernel\":\"{}\"}}",
        std::env::consts::ARCH,
        active_kernel().name()
    )
}

fn plane_json(stats: &ProbeStats) -> String {
    let scopes = [
        ("save", Scope::Save),
        ("delta", Scope::Delta),
        ("load", Scope::Load),
        ("drain", Scope::Drain),
        ("other", Scope::Other),
    ];
    let kinds =
        [("put", Kind::Put), ("get", Kind::Get), ("delete", Kind::Delete), ("meta", Kind::Meta)];
    let body: Vec<String> = scopes
        .iter()
        .map(|(sname, scope)| {
            let cells: Vec<String> = kinds
                .iter()
                .map(|(kname, kind)| {
                    let t = stats.get(*scope, *kind);
                    format!(
                        "\"{kname}\":{{\"calls\":{},\"bytes\":{},\"ns\":{}}}",
                        t.calls, t.bytes, t.ns
                    )
                })
                .collect();
            format!("\"{sname}\":{{{}}}", cells.join(","))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*value))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON number with every digit `f64` carries; non-finite values
/// (a rate over no samples) print as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&["--workload", "tcp-full", "--seed", "7", "--seconds", "3", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::TcpFull, 7, 3, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "mem-full", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "mem-full", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "mem-full", "--seed", "1", "--seconds", "1", "--trace", "2"])
            .is_err());
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(0.1234567890123), "0.1234567890123");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(metrics_json(&[("x", 1.5, "s")]), "{\"x\":{\"value\":1.5,\"unit\":\"s\"}}");
    }
}
