//! Bit-identity of the CENSUS generator across row counts, mixtures and
//! thread counts.
//!
//! Rows are generated in fixed chunks, each on its own seek into the
//! seeded keystream, so the row counts below straddle the chunk size
//! (4096) and reach many chunks. The digests were recorded from the
//! original one-row-at-a-time generator; they must never change.

use betalike_microdata::census::{generate, CensusConfig};

const ROWS: [usize; 6] = [1, 4_095, 4_096, 4_097, 50_000, 200_000];
const MIXES: [f64; 4] = [0.0, 0.5, 0.8, 1.0];

/// FNV-1a (64-bit) over every column, column by column, each value as
/// four little-endian bytes.
fn digest(rows: usize, corr_mix: f64) -> u64 {
    let table = generate(&CensusConfig {
        rows,
        seed: 42,
        corr_mix,
    });
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in 0..table.schema().arity() {
        for &v in table.column(a) {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The digest of every `(rows, corr_mix)` pair, rows-major.
const EXPECTED: [u64; 24] = [
    0x47c7373c85042c78,
    0x47c7373c85042c78,
    0x47c7373c85042c78,
    0x47c7373c85042c78,
    0x3708bb7f6639e9f8,
    0x18312a08ff6bc538,
    0x095d58e6932db9d8,
    0x1361a99c26f04c28,
    0x0a2b831f141a6566,
    0x5a0bc478659c9c86,
    0xfb220997843b27b6,
    0x60105edf1bb54c06,
    0x0ab3b24d4f69a3fb,
    0x1178029dcad2b85b,
    0xcdfb96eca5aa938b,
    0x7aefba505b2d960b,
    0xa3b37e283394c202,
    0xf5be060dfdbec032,
    0x9469dac971cad3c2,
    0x9bf2c919027646f2,
    0xc6e5d23f15ed23f2,
    0x600ba66792e2e832,
    0x5b14a916ccf8f5c2,
    0x2c6d834863e932f2,
];

fn check_digests(context: &str) {
    for (i, &rows) in ROWS.iter().enumerate() {
        for (j, &mix) in MIXES.iter().enumerate() {
            assert_eq!(
                digest(rows, mix),
                EXPECTED[i * MIXES.len() + j],
                "rows {rows}, corr_mix {mix} ({context})"
            );
        }
    }
}

#[test]
fn census_digests_match_recorded_values() {
    check_digests("ambient thread count");
}

#[test]
fn census_digests_hold_at_one_and_eight_threads() {
    for threads in [1, 8] {
        mini_rayon::set_threads(threads);
        check_digests(&format!("{threads} threads"));
    }
    mini_rayon::set_threads(0);
}
