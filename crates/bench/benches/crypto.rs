//! Crypto-substrate benches: the RoT's hash/MAC primitives as used for
//! `H_MEM` measurement and report authentication.
//!
//! The first line names the SHA-256 compressor the host runs
//! (`sha-ni` or `portable`): numbers from hosts with different
//! compressors are different hosts, not a regression.

use std::hint::black_box;

use rap_bench::harness::BenchGroup;
use rap_crypto::{hmac_sha256, sha256, sha256_backend, HmacSha256};

/// 64 B is one block; 218 B and 18 884 B are the report streams the
/// round benchmark serves (`syringe` and `prime`, see
/// `roundbench/README.md`).
fn bench_sha256() {
    let group = BenchGroup::new("sha256");
    for size in [64usize, 218, 1024, 16 * 1024, 18_884] {
        let data = vec![0xA5u8; size];
        group.bench(&format!("{size}B"), || black_box(sha256(black_box(&data))));
    }
}

fn bench_hmac() {
    let group = BenchGroup::new("hmac_sha256");
    let key = b"device-key";
    for size in [64usize, 218, 4096, 18_884] {
        let data = vec![0x5Au8; size];
        group.bench(&format!("{size}B"), || {
            black_box(hmac_sha256(key, black_box(&data)))
        });
    }
    // Incremental report-style MAC (header + many small log chunks).
    group.bench("incremental_report", || {
        let chunk = [0xEEu8; 8];
        let mut mac = HmacSha256::new(key);
        mac.update(b"RAP-TRACK-REPORT-V1");
        for _ in 0..512 {
            mac.update(&chunk);
        }
        black_box(mac.finalize())
    });
}

fn main() {
    println!("sha-256 compressor: {}", sha256_backend());
    bench_sha256();
    bench_hmac();
}
