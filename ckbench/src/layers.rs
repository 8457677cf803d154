//! Layer rates measured in the workload's own process: the reference
//! pass (memcpy, `crc32`, the active kernel's `mul_xor`) every run uses
//! as its hardware base, and the per-crate rates of the traced run.
//! Every rate is the median over repetitions at the workload's chunk
//! length, in MB/s of input bytes.

use std::hint::black_box;
use std::time::Instant;

use ecc_checkpoint::{crc32, decompose, Packer};
use ecc_erasure::{CodeParams, CodingPool, ErasureCode};
use ecc_gf::kernel::active_kernel;
use ecc_gf::{GaloisField, Split8};
use ecc_net::codec::{decode_response, encode_request, encode_response};
use ecc_net::{Request, Response};

use crate::stats::median;
use crate::workload::{SeedRng, CODING_THREADS, K, M, PACKET};

/// MB/s of `f` over `bytes` input bytes: one warm-up call, then the
/// per-call rate of `reps` calls, appended to `out`.
fn rates(out: &mut Vec<f64>, bytes: usize, reps: usize, mut f: impl FnMut()) {
    f();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        out.push(bytes as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
}

fn median_rate(bytes: usize, reps: usize, f: impl FnMut()) -> f64 {
    let mut out = Vec::with_capacity(reps);
    rates(&mut out, bytes, reps, f);
    median(&out)
}

/// Seeded filler bytes.
pub fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SeedRng::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Per-call rate samples of the reference pass. A full pass runs before
/// and after the loop, and [`Reference::memcpy_probe`] between engine
/// calls, so the memcpy base is sampled across the same minutes as the
/// workload it divides.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    /// Three chunk-sized buffers. Each memcpy reads the one least
    /// recently touched: repeated copies between one pair run partly in
    /// cache and read up to a fifth apart from one process to the next.
    bufs: Vec<Vec<u8>>,
    copies: usize,
    memcpy: Vec<f64>,
    crc: Vec<f64>,
    mul_xor: Vec<f64>,
}

impl Reference {
    /// Buffers of `chunk_len` seeded bytes, written once so no page
    /// faults land in a timed call.
    pub fn new(chunk_len: usize, seed: u64) -> Self {
        let bufs = (0..3).map(|i| seeded_bytes(chunk_len, seed ^ i)).collect();
        Self { bufs, ..Self::default() }
    }

    fn memcpy_rates(&mut self, reps: usize) {
        let len = self.bufs[0].len();
        for _ in 0..reps {
            let (from, to) = ((self.copies + 1) % 3, self.copies % 3);
            self.copies += 1;
            let src = std::mem::take(&mut self.bufs[from]);
            let t = Instant::now();
            self.bufs[to].copy_from_slice(black_box(&src));
            black_box(&mut self.bufs[to]);
            self.memcpy.push(len as f64 / t.elapsed().as_secs_f64() / 1e6);
            self.bufs[from] = src;
        }
    }

    /// One full pass: memcpy, `crc32` and the active kernel's `mul_xor`.
    pub fn pass(&mut self) {
        self.memcpy_rates(15);
        let [src, dst, _] = &mut self.bufs[..] else { unreachable!("three buffers") };
        let len = src.len();
        rates(&mut self.crc, len, 5, || {
            black_box(crc32(black_box(src)));
        });
        let gf = GaloisField::new(8).expect("w = 8 is supported");
        let table = Split8::new(&gf, 0x57).expect("0x57 is a GF(2^8) element");
        let kernel = active_kernel();
        rates(&mut self.mul_xor, len, 15, || {
            kernel.mul_xor(&table, black_box(src), dst);
            black_box(&mut *dst);
        });
    }

    /// Two memcpy samples, taken between engine calls.
    pub fn memcpy_probe(&mut self) {
        self.memcpy_rates(2);
    }

    /// `ref.memcpy_mb_s`.
    pub fn memcpy_mb_s(&self) -> f64 {
        median(&self.memcpy)
    }

    /// `checkpoint.crc_mb_s`.
    pub fn crc_mb_s(&self) -> f64 {
        median(&self.crc)
    }

    /// `gf.mul_xor_mb_s`.
    pub fn mul_xor_mb_s(&self) -> f64 {
        median(&self.mul_xor)
    }
}

/// The traced run's per-crate rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRates {
    /// `decompose` over every worker's state.
    pub decompose_mb_s: f64,
    /// `Packer::pack` over every worker's tensors.
    pub pack_mb_s: f64,
    /// `CodingPool::encode` of k chunks (input bytes).
    pub encode_mb_s: f64,
    /// `reconstruct_all` after losing one data and one parity chunk
    /// (k chunks' worth of bytes per call).
    pub reconstruct_mb_s: f64,
    /// `parity_delta` of one chunk-sized delta.
    pub parity_delta_mb_s: f64,
    /// `encode_request` of a chunk-sized put plus `decode_response` of a
    /// chunk-sized blob (both chunks' bytes per call pair).
    pub codec_mb_s: f64,
}

/// Measures [`LayerRates`] on generation-0 state `dicts`, with chunks of
/// `chunk_len` bytes and the crash pattern `failure` (data index,
/// parity index).
pub fn layer_rates(
    dicts: &[ecc_checkpoint::StateDict],
    chunk_len: usize,
    failure: (usize, usize),
    seed: u64,
) -> LayerRates {
    let tensor_bytes: usize = dicts.iter().map(|d| d.tensor_bytes()).sum();
    let decompose_mb_s = median_rate(tensor_bytes, 5, || {
        for d in dicts {
            black_box(decompose(d));
        }
    });
    let decs: Vec<_> = dicts.iter().map(decompose).collect();
    let packer = Packer::new(PACKET).expect("packet size is valid");
    let pack_mb_s = median_rate(tensor_bytes, 5, || {
        for d in &decs {
            black_box(packer.pack(d.tensor_data()));
        }
    });
    drop(decs);

    let code = ErasureCode::cauchy_good(CodeParams::new(K, M, 8).expect("k = m = 2, w = 8"))
        .expect("Cauchy code exists for k = m = 2");
    let pool = CodingPool::new(CODING_THREADS);
    let data: Vec<Vec<u8>> = (0..K as u64).map(|j| seeded_bytes(chunk_len, seed ^ j)).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let encode_mb_s = median_rate(K * chunk_len, 5, || {
        black_box(pool.encode(&code, &refs).expect("chunk length is aligned"));
    });
    let parity = code.encode(&refs).expect("chunk length is aligned");
    let mut shards: Vec<Option<&[u8]>> = refs.iter().copied().map(Some).collect();
    shards.extend(parity.iter().map(|p| Some(p.as_slice())));
    shards[failure.0] = None;
    shards[K + failure.1] = None;
    let reconstruct_mb_s = median_rate(K * chunk_len, 5, || {
        black_box(code.reconstruct_all(&shards).expect("k chunks survive"));
    });
    let parity_delta_mb_s = median_rate(chunk_len, 5, || {
        black_box(code.parity_delta(0, &data[0]).expect("chunk length is aligned"));
    });

    let put = Request::PutLocal { node: 0, key: "bench/chunk".to_string(), blob: data[0].clone() };
    let blob = encode_response(&Response::Blob(data[1].clone()));
    let codec_mb_s = median_rate(2 * chunk_len, 5, || {
        black_box(encode_request(black_box(&put)));
        black_box(decode_response(black_box(&blob)).expect("a well-formed frame"));
    });

    LayerRates {
        decompose_mb_s,
        pack_mb_s,
        encode_mb_s,
        reconstruct_mb_s,
        parity_delta_mb_s,
        codec_mb_s,
    }
}
