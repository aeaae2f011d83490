//! Pinned Zipf op sequences: `fnv1a` of every op a [`ZipfStream`] emits,
//! over the skew branches of the rank formula (uniform, moderate, YCSB
//! 0.99, the `|s - 1| < 1e-9` log branch exactly and from both sides,
//! concentrated) and footprints from one page to 2²⁰ lines. A change to
//! the rank decode that moves any draw's rank, or its RNG use, changes a
//! digest here.

use chameleon_cpu::{InstructionStream, Op};
use chameleon_simkit::hash::fnv1a;
use chameleon_simkit::mem::ByteSize;
use chameleon_workloads::{ZipfConfig, ZipfStream};

const SKEWS: [f64; 7] = [0.0, 0.6, 0.99, 1.0, 1.0 - 5e-10, 1.0 + 5e-10, 1.2];

const LINES: [u64; 4] = [64, 8_192, 16_384, 1 << 20];

/// One memory op per instruction, so each stream makes this many rank
/// draws: more than 4,096, so a footprint above 4,096 lines can show
/// more than 4,096 distinct lines (and hence ranks past 4,096).
const DRAWS: u64 = 8_192;

const LINE: u64 = 64;

/// `fnv1a` of each `(skew, lines)` stream's ops, in `SKEWS` × `LINES`
/// order. Change an entry only with an intended change to the Zipf
/// draw; a mismatch prints the replacement table.
///
/// The three skews within 1e-9 of 1 all take the `n^u` branch, so
/// their rows agree.
const OP_DIGESTS: [u64; 28] = [
    0x27a24e8ab21dfcf4,
    0x6391413b8c68d061,
    0x5c626591c9772c06,
    0x13689a0615bd33f0,
    0xfc7fd74aa0cbcf04,
    0x302d56ce75fa8e2b,
    0x319e7f0c21c86b7c,
    0x0ecd1dfec7090b90,
    0x07e909b63d44225a,
    0xc7ad505be10b7186,
    0x97815f3459fa1014,
    0xd36ea4cfaaa3a017,
    0x0a01dc45fea94d01,
    0x1e16981bbe5ffde2,
    0x6ff66274c4124856,
    0xa10aba5a1a01769f,
    0x0a01dc45fea94d01,
    0x1e16981bbe5ffde2,
    0x6ff66274c4124856,
    0xa10aba5a1a01769f,
    0x0a01dc45fea94d01,
    0x1e16981bbe5ffde2,
    0x6ff66274c4124856,
    0xa10aba5a1a01769f,
    0x51b37c848202bf4b,
    0xf8d826dd4fdfdb36,
    0xf3c6bd2c81746992,
    0xbabe47d7de881449,
];

/// Drains one pinned stream into its op bytes and the number of
/// distinct lines it touched.
fn drain(skew: f64, lines: u64) -> (Vec<u8>, usize) {
    let cfg = ZipfConfig {
        footprint: ByteSize::bytes_exact(lines * LINE),
        skew,
        mem_per_kilo: 1000,
        write_fraction: 0.3,
    };
    let mut s = ZipfStream::new(&cfg, DRAWS, 1);
    let mut bytes = Vec::new();
    let mut touched = std::collections::BTreeSet::new();
    while let Some(op) = s.next_op() {
        let (tag, payload) = match op {
            Op::Compute(n) => (0u8, u64::from(n)),
            Op::Load(a) => (1, a),
            Op::Store(a) => (2, a),
        };
        if tag != 0 {
            touched.insert(payload / LINE);
        }
        bytes.push(tag);
        bytes.extend_from_slice(&payload.to_le_bytes());
    }
    (bytes, touched.len())
}

#[test]
fn zipf_op_sequences_match_pinned_digests() {
    let mut digests = Vec::new();
    for skew in SKEWS {
        for lines in LINES {
            let (bytes, touched) = drain(skew, lines);
            if skew == 0.0 && lines > 4_096 {
                assert!(
                    touched > 4_096,
                    "uniform over {lines} lines touched only {touched} lines; \
                     the pin must reach ranks past 4,096"
                );
            }
            digests.push(fnv1a(&bytes));
        }
    }
    if digests != OP_DIGESTS {
        let table: String = digests
            .iter()
            .map(|d| format!("    {d:#018x},\n"))
            .collect();
        panic!("Zipf op sequences changed; if intended, replace OP_DIGESTS with:\n[\n{table}]");
    }
}
